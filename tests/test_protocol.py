import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import octv
from octv.errors import ProtocolError
from octv.protocol import (
    CHAR_LOCATION,
    CHAR_MODE,
    CHAR_NAME,
    CHAR_URL_FORMAT,
    Beacon,
    CameraDescriptor,
    ChunkToken,
    Coordinates,
    KeyPacket,
    Mode,
    characteristic_uuid,
    decode_advertisement,
    decode_characteristic,
    decode_key_packet,
    encode_advertisement,
    encode_characteristic,
    encode_key_packet,
    format_video_url,
    parse_hex,
    parse_video_id,
    parse_video_url,
    url_extension,
)

key_packets = st.builds(
    KeyPacket,
    key=st.binary(min_size=32, max_size=32),
    seq=st.integers(0, 255),
    reconnect_interval_s=st.integers(0, 65535),
    video_id=st.binary(min_size=8, max_size=8),
    prev_hash_prefix=st.binary(min_size=21, max_size=21),
)


class TestKeyPacket:
    def test_hand_assembled_vector(self):
        packet = KeyPacket(
            key=b"\x11" * 32,
            seq=5,
            reconnect_interval_s=60,
            video_id=bytes.fromhex("0102030405060708"),
            prev_hash_prefix=b"\xaa" * 21,
        )
        expected = bytes.fromhex("11" * 32 + "05" + "003c" + "0102030405060708" + "aa" * 21)
        assert encode_key_packet(packet) == expected

    def test_all_zero_fields(self):
        packet = KeyPacket(bytes(32), 0, 0, bytes(8), bytes(21))
        assert encode_key_packet(packet) == bytes(64)
        assert decode_key_packet(bytes(64)) == packet

    def test_max_range_fields_big_endian(self):
        packet = KeyPacket(bytes(32), 255, 65535, bytes(8), bytes(21))
        encoded = encode_key_packet(packet)
        assert encoded[32] == 0xFF
        assert encoded[33:35] == b"\xff\xff"

    def test_ri_is_big_endian(self):
        packet = KeyPacket(bytes(32), 0, 0x0102, bytes(8), bytes(21))
        assert encode_key_packet(packet)[33:35] == b"\x01\x02"

    def test_wrong_length_names_actual_length(self):
        with pytest.raises(ProtocolError, match="63"):
            decode_key_packet(bytes(63))
        with pytest.raises(ProtocolError, match="65"):
            decode_key_packet(bytes(65))

    @given(key_packets)
    def test_roundtrip(self, packet):
        encoded = encode_key_packet(packet)
        assert len(encoded) == 64
        assert decode_key_packet(encoded) == packet

    def test_field_range_validation(self):
        with pytest.raises(ValueError):
            KeyPacket(bytes(31), 0, 0, bytes(8), bytes(21))
        with pytest.raises(ValueError):
            KeyPacket(bytes(32), 256, 0, bytes(8), bytes(21))
        with pytest.raises(ValueError):
            KeyPacket(bytes(32), 0, 65536, bytes(8), bytes(21))
        with pytest.raises(ValueError):
            KeyPacket(bytes(32), 0, 0, bytes(7), bytes(21))
        with pytest.raises(ValueError):
            KeyPacket(bytes(32), 0, 0, bytes(8), bytes(20))


class TestCharacteristicUuid:
    def test_table_values(self):
        assert characteristic_uuid(0x0001) == "cc92cc92-ca19-0000-0000-000000000001"
        assert characteristic_uuid(0x0011) == "cc92cc92-ca19-0000-0000-000000000011"

    def test_out_of_range(self):
        with pytest.raises(ProtocolError):
            characteristic_uuid(0x10000)
        with pytest.raises(ProtocolError):
            characteristic_uuid(-1)

    @given(st.integers(0, 0xFFFF))
    def test_canonical_pattern(self, suffix):
        uuid = characteristic_uuid(suffix)
        assert re.match(r"^cc92cc92-ca19-0000-0000-00000000[0-9a-f]{4}$", uuid)


class TestVideoUrl:
    TEMPLATE = "https://files.example/{id}.mp4"

    def test_substitution(self):
        video_id = bytes.fromhex("0011223344556677")
        url = format_video_url(self.TEMPLATE, video_id)
        assert url == "https://files.example/0011223344556677.mp4"

    def test_zero_id(self):
        assert format_video_url(self.TEMPLATE, bytes(8)).endswith("/0000000000000000.mp4")

    def test_template_without_placeholder(self):
        with pytest.raises(ProtocolError):
            format_video_url("https://files.example/video.mp4", bytes(8))

    def test_template_with_two_placeholders(self):
        with pytest.raises(ProtocolError):
            format_video_url("https://x.example/{id}/{id}.mp4", bytes(8))

    @given(st.binary(min_size=8, max_size=8))
    def test_roundtrip(self, video_id):
        url = format_video_url(self.TEMPLATE, video_id)
        assert parse_video_url(url, self.TEMPLATE) == video_id

    def test_parse_non_hex(self):
        with pytest.raises(ProtocolError):
            parse_video_url("https://files.example/zzzzzzzzzzzzzzzz.mp4", self.TEMPLATE)

    def test_parse_short_id(self):
        with pytest.raises(ProtocolError):
            parse_video_url("https://files.example/00112233445566.mp4", self.TEMPLATE)

    def test_parse_non_matching(self):
        with pytest.raises(ProtocolError):
            parse_video_url("https://other.example/0011223344556677.mp4", self.TEMPLATE)

    def test_parse_spaced_id(self):
        # 16 characters, but two are spaces: not a video id's text form
        with pytest.raises(ProtocolError):
            parse_video_url("https://files.example/001122334455  66.mp4", self.TEMPLATE)

    def test_parse_id_before_a_query(self):
        template = "https://files.example/{id}.jpg?v=1"
        url = "https://files.example/0011223344556677.jpg?v=1"
        assert parse_video_url(url, template) == bytes.fromhex("0011223344556677")


class TestVideoId:
    @pytest.mark.parametrize("text", ["0011223344556677", "AABBCCDDEEFF0011", "aAbBcCdDeEfF0011"])
    def test_sixteen_hex_digits_in_either_case(self, text):
        assert parse_video_id(text) == bytes.fromhex(text)

    @pytest.mark.parametrize("text", [
        "", "001122334455667", "00112233445566778", "001122334455  66", " 0011223344556677",
        "0011223344556677\n", "00 11 22 33 44 55 66 77", "001122334455667g", "0x11223344556677",
        "\u0660" * 16,  # ARABIC-INDIC DIGIT ZERO: a digit, but not a hex digit
    ])
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(ProtocolError, match="16 hex digits"):
            parse_video_id(text)


class TestParseHex:
    @pytest.mark.parametrize("text", ["", "00", "0aFf", "DEADbeef0102"])
    def test_hex_digit_pairs_in_either_case(self, text):
        assert parse_hex(text) == bytes.fromhex(text)

    @pytest.mark.parametrize("text", [
        "01 02", "01 02 03 04 05 06 07 08", " 0102", "0102\n", "0102 ", "012", "0x0102", "zz",
        "\u0660\u0660",  # ARABIC-INDIC DIGIT ZERO: a digit, but not a hex digit
    ])
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(ProtocolError, match="not valid hex"):
            parse_hex(text)


# No module slices wire or container bytes, or checks a wire length, by a
# literal: the struct layouts are the one source of each offset and length.
# Each pattern is one way the layouts were once bypassed.
_HAND_WRITTEN_WIRE = re.compile(
    r'data\[[0-9]+:[0-9]+\]|len\([a-z_.]+\) != (8|10|27|64)\b|\{16\}|"utf-8"\)\)\.digest\(\)\[:8\]'
    r"|offset \+ [0-9]+"
)


def test_no_module_hand_writes_a_wire_offset_or_length():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(octv.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if _HAND_WRITTEN_WIRE.search(line)
    ]
    assert hits == []


# a literal struct format at the call, a frame sliced at a literal offset, or
# an offset counted past the address by hand
_UNNAMED_LAYOUT = re.compile(
    r"struct\.(pack|unpack|unpack_from|pack_into|iter_unpack|calcsize)\("
    r"|\bframe\[[0-9]|[0-9] \+ ADDRESS_LEN"
)


def test_every_binary_layout_is_a_named_struct():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(octv.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if _UNNAMED_LAYOUT.search(line)
    ]
    assert hits == []


class TestUrlExtension:
    @pytest.mark.parametrize("template, extension", [
        ("https://files.example/{id}.mp4", "mp4"),
        ("https://files.example/{id}.jpg", "jpg"),
        ("https://h/{id}.jpg?v=1", "jpg"),
        ("https://h/{id}.mp4#t=5", "mp4"),
        ("https://h/clips.v2/{id}.jpg", "jpg"),
        ("file:///srv/objects/{id}.mp4", "mp4"),
        ("https://h/a.mp4?id={id}", "mp4"),
    ])
    def test_extension_of_the_url_path(self, template, extension):
        assert url_extension(template) == extension

    @pytest.mark.parametrize("template", [
        "https://h/{id}.png", "https://h/{id}", "https://h/{id}mp4", "https://h/{id}?f=.mp4",
        "https://h/video.mp4", "{id}.mp4",
    ])
    def test_bad_template_is_rejected(self, template):
        with pytest.raises(ProtocolError):
            url_extension(template)

    @pytest.mark.parametrize("call", [
        url_extension,
        lambda template: format_video_url(template, bytes(8)),
        lambda template: parse_video_url("https://h/0000000000000000.png", template),
    ], ids=["url_extension", "format_video_url", "parse_video_url"])
    def test_bad_template_is_refused_on_every_call(self, call):
        """A template's check is kept once it passes; a refusal is not kept."""
        for _ in range(2):
            with pytest.raises(ProtocolError):
                call("https://h/{id}.png")


def make_descriptor(**overrides):
    values = dict(
        name="front door",
        mode=Mode.AUTO,
        location=Coordinates(54.978, -1.617),
        url_template="https://files.example/{id}.mp4",
    )
    values.update(overrides)
    return CameraDescriptor(**values)


class TestDescriptor:
    def test_name_length_limits(self):
        with pytest.raises(ValueError):
            make_descriptor(name="")
        with pytest.raises(ValueError):
            make_descriptor(name="x" * 65)
        make_descriptor(name="x" * 64)

    def test_location_text_limit(self):
        with pytest.raises(ValueError):
            make_descriptor(location="x" * 257)

    def test_template_extension(self):
        make_descriptor(url_template="https://x.example/{id}.jpg")
        with pytest.raises(ProtocolError):
            make_descriptor(url_template="https://x.example/{id}.avi")


class TestCharacteristics:
    def test_mode_bytes(self):
        assert encode_characteristic(make_descriptor(mode=Mode.AUTO), CHAR_MODE) == b"\x00"
        assert encode_characteristic(make_descriptor(mode=Mode.MANUAL), CHAR_MODE) == b"\x01"
        assert encode_characteristic(make_descriptor(mode=Mode.DELAYED), CHAR_MODE) == b"\x02"

    @pytest.mark.parametrize("which", [CHAR_NAME, CHAR_MODE, CHAR_LOCATION, CHAR_URL_FORMAT])
    def test_roundtrip_all_fields(self, which):
        descriptor = make_descriptor()
        value = decode_characteristic(which, encode_characteristic(descriptor, which))
        expected = {
            CHAR_NAME: descriptor.name,
            CHAR_MODE: descriptor.mode,
            CHAR_LOCATION: descriptor.location,
            CHAR_URL_FORMAT: descriptor.url_template,
        }[which]
        assert value == expected

    def test_text_location_roundtrip(self):
        descriptor = make_descriptor(location="east stairwell")
        encoded = encode_characteristic(descriptor, CHAR_LOCATION)
        assert encoded[0] == 0x01
        assert decode_characteristic(CHAR_LOCATION, encoded) == "east stairwell"

    def test_coordinates_are_big_endian_doubles(self):
        descriptor = make_descriptor(location=Coordinates(1.0, 2.0))
        encoded = encode_characteristic(descriptor, CHAR_LOCATION)
        assert encoded[0] == 0x00
        assert len(encoded) == 17
        assert encoded[1:9] == b"\x3f\xf0\x00\x00\x00\x00\x00\x00"  # 1.0 as BE double

    def test_truncated_coordinates(self):
        with pytest.raises(ProtocolError):
            decode_characteristic(CHAR_LOCATION, b"\x00" + bytes(9))

    def test_unknown_mode_byte(self):
        with pytest.raises(ProtocolError):
            decode_characteristic(CHAR_MODE, b"\x03")

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            decode_characteristic(CHAR_NAME, b"\xff\xfe")

    @given(st.text(min_size=1).filter(lambda s: 1 <= len(s.encode("utf-8")) <= 64))
    def test_name_roundtrip_property(self, name):
        descriptor = make_descriptor(name=name)
        assert decode_characteristic(CHAR_NAME, encode_characteristic(descriptor, CHAR_NAME)) == name

    @given(st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False))
    def test_coordinates_roundtrip_property(self, lat, lon):
        descriptor = make_descriptor(location=Coordinates(lat, lon))
        decoded = decode_characteristic(
            CHAR_LOCATION, encode_characteristic(descriptor, CHAR_LOCATION)
        )
        assert decoded == Coordinates(lat, lon)


class TestAdvertisements:
    def test_beacon_layout(self):
        encoded = encode_advertisement(Beacon(camera_id=b"\x01" * 8, seq=7))
        assert encoded == bytes.fromhex("01" + "01" * 8 + "07")
        assert len(encoded) == 10

    def test_token_length_within_budget(self):
        encoded = encode_advertisement(
            ChunkToken(video_id=bytes(8), chunk_index=3, token=bytes(16))
        )
        assert len(encoded) == 27
        assert len(encoded) <= 31

    def test_token_chunk_index_big_endian(self):
        encoded = encode_advertisement(
            ChunkToken(video_id=bytes(8), chunk_index=0x0102, token=bytes(16))
        )
        assert encoded[9:11] == b"\x01\x02"

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError):
            decode_advertisement(b"\x03" + bytes(9))

    def test_wrong_lengths(self):
        with pytest.raises(ProtocolError):
            decode_advertisement(b"\x01" + bytes(8))
        with pytest.raises(ProtocolError):
            decode_advertisement(b"\x02" + bytes(27))
        with pytest.raises(ProtocolError):
            decode_advertisement(b"")

    @given(st.binary(min_size=8, max_size=8), st.integers(0, 255))
    def test_beacon_roundtrip(self, camera_id, seq):
        beacon = Beacon(camera_id=camera_id, seq=seq)
        assert decode_advertisement(encode_advertisement(beacon)) == beacon

    @given(
        st.binary(min_size=8, max_size=8),
        st.integers(0, 65535),
        st.binary(min_size=16, max_size=16),
    )
    def test_token_roundtrip(self, video_id, index, token):
        announcement = ChunkToken(video_id=video_id, chunk_index=index, token=token)
        assert decode_advertisement(encode_advertisement(announcement)) == announcement
