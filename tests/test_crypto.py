import hashlib
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octv.crypto import (
    ChainStatus,
    ChunkToken,
    container_scheme,
    decrypt_segment,
    decrypt_segment_chunked,
    derive_chunk_key,
    encrypt_segment,
    encrypt_segment_chunked,
    generate_key,
    generate_token,
    generate_video_id,
    hash_prefix,
    verify_chain,
)
from octv.errors import ConfigError, FormatError, IntegrityError
from octv.protocol import KeyPacket


def slicing_oracle(plaintext: bytes, chunk_count: int) -> list[bytes]:
    """Independent chunk boundary computation: ceil-size slices, remainder last."""
    size = (len(plaintext) + chunk_count - 1) // chunk_count
    out = []
    for i in range(chunk_count):
        out.append(plaintext[i * size : (i + 1) * size])
    return out


def make_tokens(video_id: bytes, count: int) -> list[ChunkToken]:
    return [ChunkToken(generate_token(), i, video_id) for i in range(count)]


def make_packet(prev_hash: bytes, seq: int = 0) -> KeyPacket:
    return KeyPacket(
        key=generate_key(), seq=seq, reconnect_interval_s=60,
        video_id=generate_video_id(), prev_hash_prefix=prev_hash,
    )


class TestGeneration:
    def test_lengths(self):
        assert len(generate_key()) == 32
        assert len(generate_video_id()) == 8
        assert len(generate_token()) == 16

    def test_successive_calls_differ(self):
        assert generate_key() != generate_key()
        assert generate_video_id() != generate_video_id()
        assert generate_token() != generate_token()

    def test_keys_pairwise_distinct(self):
        keys = {generate_key() for _ in range(2000)}
        assert len(keys) == 2000


class TestSingleKeyContainer:
    def test_roundtrip(self):
        key = generate_key()
        plaintext = secrets.token_bytes(1024)
        assert decrypt_segment(encrypt_segment(plaintext, key), key) == plaintext

    def test_overhead_is_34_bytes(self):
        key = generate_key()
        for size in (0, 1, 17, 4096):
            assert len(encrypt_segment(bytes(size), key)) == size + 34

    def test_empty_plaintext_authenticates(self):
        key = generate_key()
        container = encrypt_segment(b"", key)
        assert len(container) == 34
        assert decrypt_segment(container, key) == b""

    def test_header_fields(self):
        container = encrypt_segment(b"x", generate_key())
        assert container[:4] == b"OCTV"
        assert container[4] == 0x01
        assert container[5] == 0x01

    def test_wrong_key_is_integrity_error(self):
        container = encrypt_segment(b"payload", generate_key())
        with pytest.raises(IntegrityError):
            decrypt_segment(container, generate_key())

    def test_bad_magic_is_format_error(self):
        key = generate_key()
        container = bytearray(encrypt_segment(b"payload", key))
        container[:4] = b"XXXX"
        with pytest.raises(FormatError):
            decrypt_segment(bytes(container), key)

    def test_scheme_mismatch_is_format_error(self):
        key = generate_key()
        chunked = encrypt_segment_chunked(b"payload", 1, key, make_tokens(bytes(8), 1))
        with pytest.raises(FormatError):
            decrypt_segment(chunked, key)

    def test_every_single_byte_perturbation_detected(self):
        key = generate_key()
        plaintext = b"short but complete segment"
        container = encrypt_segment(plaintext, key)
        for position in range(len(container)):
            tampered = bytearray(container)
            tampered[position] ^= 0x01
            with pytest.raises((IntegrityError, FormatError)):
                decrypt_segment(bytes(tampered), key)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=2048))
    def test_roundtrip_property(self, plaintext):
        key = generate_key()
        assert decrypt_segment(encrypt_segment(plaintext, key), key) == plaintext

    def test_roundtrip_one_mebibyte(self):
        key = generate_key()
        plaintext = secrets.token_bytes(1024 * 1024)
        assert decrypt_segment(encrypt_segment(plaintext, key), key) == plaintext


class TestHashPrefix:
    def test_empty_input_standard_vector(self):
        assert hash_prefix(b"") == bytes.fromhex(
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e464"
        )

    def test_length_always_21(self):
        for data in (b"", b"a", secrets.token_bytes(1000)):
            assert len(hash_prefix(data)) == 21

    def test_matches_independent_sha256(self):
        data = secrets.token_bytes(333)
        assert hash_prefix(data) == hashlib.sha256(data).digest()[:21]

    def test_single_byte_change_differs(self):
        data = bytearray(secrets.token_bytes(64))
        before = hash_prefix(bytes(data))
        data[10] ^= 0xFF
        assert hash_prefix(bytes(data)) != before


class TestChunkKeyDerivation:
    def test_all_zero_vector(self):
        token = ChunkToken(bytes(16), 0, bytes(8))
        assert derive_chunk_key(token) == hashlib.sha256(bytes(26)).digest()

    def test_matches_independent_sha256(self):
        token = ChunkToken(secrets.token_bytes(16), 0x0102, secrets.token_bytes(8))
        expected = hashlib.sha256(token.token + token.video_id + b"\x01\x02").digest()
        assert derive_chunk_key(token) == expected

    def test_different_index_different_key(self):
        raw = generate_token()
        video_id = generate_video_id()
        a = derive_chunk_key(ChunkToken(raw, 0, video_id))
        b = derive_chunk_key(ChunkToken(raw, 1, video_id))
        assert a != b

    def test_deterministic(self):
        token = ChunkToken(generate_token(), 3, generate_video_id())
        assert derive_chunk_key(token) == derive_chunk_key(token)


class TestChunkedContainer:
    def test_full_roundtrip(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 10)
        plaintext = secrets.token_bytes(2000)
        container = encrypt_segment_chunked(plaintext, 10, key, tokens)
        chunks = decrypt_segment_chunked(container, key, tokens)
        assert b"".join(data for _, data in chunks) == plaintext

    def test_single_chunk_degenerate(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 1)
        plaintext = b"whole segment in one chunk"
        container = encrypt_segment_chunked(plaintext, 1, key, tokens)
        chunks = decrypt_segment_chunked(container, key, tokens)
        assert chunks == [(0, plaintext)]

    def test_partial_tokens_match_slicing_oracle(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 10)
        plaintext = secrets.token_bytes(2000)
        container = encrypt_segment_chunked(plaintext, 10, key, tokens)

        held = tokens[3:8]  # chunks 3..7
        chunks = decrypt_segment_chunked(container, key, held)
        expected_slices = slicing_oracle(plaintext, 10)
        assert [index for index, _ in chunks] == list(range(10))
        for index, data in chunks:
            if 3 <= index <= 7:
                assert data == expected_slices[index]
            else:
                assert data is None

    def test_no_tokens_everything_locked_but_enumerable(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 10)
        container = encrypt_segment_chunked(secrets.token_bytes(500), 10, key, tokens)
        chunks = decrypt_segment_chunked(container, key, [])
        assert [index for index, _ in chunks] == list(range(10))
        assert all(data is None for _, data in chunks)

    def test_tokens_without_final_key_reveal_nothing(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 10)
        container = encrypt_segment_chunked(secrets.token_bytes(500), 10, key, tokens)
        with pytest.raises(IntegrityError):
            decrypt_segment_chunked(container, generate_key(), tokens)

    def test_inner_record_count_equals_chunk_count(self):
        # parse the inner layout after outer decryption, independently
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 7)
        container = encrypt_segment_chunked(secrets.token_bytes(700), 7, key, tokens)
        inner = AESGCM(key).decrypt(container[6:18], container[18:], container[:6])
        assert int.from_bytes(inner[:2], "big") == 7

    def test_wrong_video_id_token_stays_locked(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 4)
        container = encrypt_segment_chunked(secrets.token_bytes(64), 4, key, tokens)
        foreign = [ChunkToken(t.token, t.chunk_index, generate_video_id()) for t in tokens]
        chunks = decrypt_segment_chunked(container, key, foreign)
        assert all(data is None for _, data in chunks)

    def test_configuration_errors(self):
        video_id = generate_video_id()
        key = generate_key()
        with pytest.raises(ConfigError):
            encrypt_segment_chunked(b"x", 0, key, [])
        with pytest.raises(ConfigError):
            encrypt_segment_chunked(b"x", 3, key, make_tokens(video_id, 2))
        mixed = make_tokens(video_id, 2) + make_tokens(generate_video_id(), 1)
        fixed = [ChunkToken(t.token, i, t.video_id) for i, t in enumerate(mixed)]
        with pytest.raises(ConfigError):
            encrypt_segment_chunked(b"x", 3, key, fixed)
        shuffled = list(reversed(make_tokens(video_id, 3)))
        with pytest.raises(ConfigError):
            encrypt_segment_chunked(b"x", 3, key, shuffled)

    def test_chunk_count_the_container_cannot_carry_is_refused(self):
        tokens = make_tokens(generate_video_id(), 65536)  # indices 0-65535, each valid
        with pytest.raises(ConfigError, match="^chunk_count must be 1-65535, got 65536$"):
            encrypt_segment_chunked(b"x", 65536, generate_key(), tokens)

    def test_container_scheme_sniffing(self):
        key = generate_key()
        assert container_scheme(encrypt_segment(b"x", key)) == 0x01
        video_id = generate_video_id()
        chunked = encrypt_segment_chunked(b"x", 1, key, make_tokens(video_id, 1))
        assert container_scheme(chunked) == 0x02

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=1024), st.integers(1, 8))
    def test_roundtrip_property(self, plaintext, chunk_count):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, chunk_count)
        container = encrypt_segment_chunked(plaintext, chunk_count, key, tokens)
        chunks = decrypt_segment_chunked(container, key, tokens)
        assert b"".join(data for _, data in chunks) == plaintext
        for (index, data), expected in zip(chunks, slicing_oracle(plaintext, chunk_count)):
            assert data == expected

    def test_roundtrip_one_mebibyte(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 16)
        plaintext = secrets.token_bytes(1024 * 1024)
        container = encrypt_segment_chunked(plaintext, 16, key, tokens)
        chunks = decrypt_segment_chunked(container, key, tokens)
        assert b"".join(data for _, data in chunks) == plaintext

    def test_chunked_tamper_detected_everywhere(self):
        video_id = generate_video_id()
        key = generate_key()
        tokens = make_tokens(video_id, 3)
        container = encrypt_segment_chunked(b"0123456789", 3, key, tokens)
        for position in range(len(container)):
            tampered = bytearray(container)
            tampered[position] ^= 0x80
            with pytest.raises((IntegrityError, FormatError)):
                decrypt_segment_chunked(bytes(tampered), key, tokens)


def build_chain(n: int, payload_size: int = 200) -> tuple[list[bytes], list[KeyPacket]]:
    """Simulate a camera's output: n stored files and n+1 packets."""
    files = []
    packets = [make_packet(bytes(21), seq=0)]
    prev = bytes(21)
    for i in range(n):
        container = encrypt_segment(secrets.token_bytes(payload_size), generate_key())
        files.append(container)
        prev = hash_prefix(container)
        packets.append(make_packet(prev, seq=i + 1))
    return files, packets


class TestReadmeContainerTable:
    """Containers built and read by README's table with AESGCM directly,
    against the readers and writers in crypto.py."""

    def test_both_schemes_agree_with_the_table(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        key, video_id = generate_key(), generate_video_id()
        plaintext = secrets.token_bytes(100)
        tokens = make_tokens(video_id, 3)
        pieces = slicing_oracle(plaintext, 3)

        def chunk_key(token):
            material = token.token + video_id + token.chunk_index.to_bytes(2, "big")
            return AESGCM(hashlib.sha256(material).digest())

        def seal(scheme, body):  # magic (4) | version (1) | scheme (1) | nonce (12) | sealed body
            header, nonce = b"OCTV" + bytes([0x01, scheme]), secrets.token_bytes(12)
            return header + nonce + AESGCM(key).encrypt(nonce, body, header)

        def open_by_table(container, scheme):
            assert container[:6] == b"OCTV" + bytes([0x01, scheme])
            return AESGCM(key).decrypt(container[6:18], container[18:], container[:6])

        # chunk_count (2), then per chunk: chunk_index (2) | cipher_len (4) | nonce (12) | cipher
        inner = (3).to_bytes(2, "big")
        for token, piece in zip(tokens, pieces):
            nonce = secrets.token_bytes(12)
            cipher = chunk_key(token).encrypt(nonce, piece, b"")
            inner += token.chunk_index.to_bytes(2, "big") + len(cipher).to_bytes(4, "big")
            inner += nonce + cipher
        assert decrypt_segment(seal(0x01, plaintext), key) == plaintext
        assert decrypt_segment_chunked(seal(0x02, inner), key, tokens) == list(enumerate(pieces))

        single = encrypt_segment(plaintext, key)
        assert len(single) == len(plaintext) + 34
        assert open_by_table(single, 0x01) == plaintext
        body = open_by_table(encrypt_segment_chunked(plaintext, 3, key, tokens), 0x02)

        def take(n):
            nonlocal body
            field, body = body[:n], body[n:]
            return field

        assert int.from_bytes(take(2), "big") == 3
        for token, piece in zip(tokens, pieces):
            assert int.from_bytes(take(2), "big") == token.chunk_index
            cipher_len = int.from_bytes(take(4), "big")
            nonce = take(12)
            assert chunk_key(token).decrypt(nonce, take(cipher_len), b"") == piece
        assert body == b""


class TestVerifyChain:
    def test_untampered_three_segments_all_ok(self):
        files, packets = build_chain(3)
        items = [(files[i], packets[i + 1]) for i in range(3)]
        report = verify_chain(items)
        assert report.statuses == [ChainStatus.OK] * 3
        assert report.first_mismatch is None
        assert report.all_ok

    def test_tampered_file_flagged_via_successor_packet(self):
        files, packets = build_chain(3)
        tampered = bytearray(files[1])
        tampered[20] ^= 0xFF
        files[1] = bytes(tampered)
        report = verify_chain([(files[i], packets[i + 1]) for i in range(3)])
        assert report.statuses == [ChainStatus.OK, ChainStatus.MISMATCH, ChainStatus.OK]
        assert report.first_mismatch == 1

    def test_single_segment_with_zero_prefix(self):
        files, packets = build_chain(1)
        report = verify_chain([(files[0], packets[0])])
        assert report.statuses == [ChainStatus.NO_PREDECESSOR]
        assert report.all_ok

    def test_exhaustive_single_segment_tampers_on_five_segment_chain(self):
        files, packets = build_chain(5)
        for tamper_index in range(5):
            mutated = list(files)
            broken = bytearray(mutated[tamper_index])
            broken[len(broken) // 2] ^= 0x01
            mutated[tamper_index] = bytes(broken)
            report = verify_chain([(mutated[i], packets[i + 1]) for i in range(5)])
            expected = [
                ChainStatus.MISMATCH if i == tamper_index else ChainStatus.OK
                for i in range(5)
            ]
            assert report.statuses == expected
            assert report.first_mismatch == tamper_index

    def test_empty_items(self):
        report = verify_chain([])
        assert report.statuses == []
        assert report.all_ok
