"""The shared binary reader, the bit-flip helper, and the decode→re-encode
property every binary decoder (and the JSON metadata and wire frame decoders) keeps."""

import builtins
import errno
import os
import random
import stat
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.authorization import (
    Constraints,
    build_envelope,
    decode_token,
    encode_token,
    issue_token,
    parse_envelope,
    serialize_envelope,
)
from assured.codec import Reader, flip_bit, write_file
from assured.controller import (
    Controller,
    LocalPolicy,
    decode_controller,
    encode_controller,
    load_controller,
    save_controller,
)
from assured.device import (
    AttestationReport,
    Bank,
    Device,
    InstallOutcome,
    decode_flash,
    encode_flash,
    load_flash,
    save_flash,
)
from assured.errors import ParseError, ReplayOrReorder, WriteFailed
from assured.metadata import Mode, RoleKind, parse, serialize_canonical
from assured.repository import (
    TamperKind,
    TamperPolicy,
    _decode_private,
    _encode_private,
    advance_clock,
    fetch_metadata,
    load_repository,
    new_repository,
    publish,
    publish_vanilla,
    save_repository,
    set_tamper,
)
from assured.transport import _decode_frame, _encode_frame


def test_integers_are_big_endian_and_advance():
    reader = Reader(bytes(range(1, 16)))
    assert reader.u8("a") == 0x01
    assert reader.u16("b") == 0x0203
    assert reader.u32("c") == 0x04050607
    assert reader.u64("d") == 0x08090A0B0C0D0E0F
    assert reader.offset == 15
    reader.end("input")


@pytest.mark.parametrize("method", ["u8", "u16", "u32", "u64", "flag"])
def test_truncated_field_is_parse_error_at_its_offset(method):
    reader = Reader(b"\x00\x00\x00\x01", offset=4)
    with pytest.raises(ParseError) as excinfo:
        getattr(reader, method)("field")
    assert excinfo.value.position == 4


def test_text_shorter_than_its_length_is_parse_error():
    with pytest.raises(ParseError) as excinfo:
        Reader(b"\x00\x05abc").text("name")
    assert excinfo.value.position == 2


def test_flag_admits_only_zero_and_one():
    assert Reader(b"\x00").flag("f") is False
    assert Reader(b"\x01").flag("f") is True
    for value in range(2, 256):
        with pytest.raises(ParseError) as excinfo:
            Reader(b"\x00" + bytes([value]), offset=1).flag("f")
        assert excinfo.value.position == 1


def test_text_round_trips_utf8_and_rejects_the_rest():
    name = "fw-ünïcode"
    encoded = name.encode("utf-8")
    reader = Reader(len(encoded).to_bytes(2, "big") + encoded + b"!")
    assert reader.text("name") == name
    assert reader.offset == 2 + len(encoded)
    with pytest.raises(ParseError) as excinfo:
        Reader(b"\x00\x03ab\xff").text("name")
    assert excinfo.value.position == 4


def test_end_rejects_trailing_bytes():
    reader = Reader(b"\x01\x02")
    reader.u8("a")
    with pytest.raises(ParseError) as excinfo:
        reader.end("record")
    assert excinfo.value.position == 1


def test_flip_bit_inverts_one_bit_modulo_the_length():
    assert flip_bit(b"\x00\x00", 0) == b"\x01\x00"
    assert flip_bit(b"\x00\x00", 15) == b"\x00\x80"
    assert flip_bit(b"\x00\x00", 16) == b"\x01\x00"


@pytest.mark.parametrize("offset", [0, 7, 12345])
def test_flip_bit_leaves_empty_input_unchanged(offset):
    assert flip_bit(b"", offset) == b""


@given(data=st.binary(min_size=1, max_size=64), offset=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100)
def test_flip_bit_changes_exactly_one_bit_and_is_its_own_inverse(data, offset):
    flipped = flip_bit(data, offset)
    assert sum(bin(a ^ b).count("1") for a, b in zip(data, flipped)) == 1
    assert flip_bit(flipped, offset) == data


# --- every binary decoder: an accepted mutant re-encodes to itself -----------------------

def _fresh_repository():
    """One key per role, threshold 1, fixed-binary, with a tamper policy set."""
    keys = [[crypto.signing_key_from_seed(label * 32)] for label in (b"r", b"t", b"s", b"w")]
    state = new_repository(*keys, mode=Mode.FIXED_BINARY, thresholds=dict.fromkeys(RoleKind, 1))
    return set_tamper(state, TamperPolicy(kind=TamperKind.FLIP_BIT_IN_ENVELOPE, bit_offset=9))


def _sample_repository():
    """The fresh repository plus a token record and a token-free record."""
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    artifact = b"\x5a" * 8
    token = issue_token(oem, artifact, Constraints(new_version=2))
    state = publish(_fresh_repository(), "fw", serialize_envelope(build_envelope(token, artifact)))
    return publish_vanilla(state, "zz", b"plain"), token


def _file_round_trip(tmp_path, load, save, data: bytes) -> bytes:
    """decode→re-encode through a loader and saver that take a file path."""
    (tmp_path / "in").write_bytes(data)
    save(load(str(tmp_path / "in")), str(tmp_path / "out"))
    return (tmp_path / "out").read_bytes()


def _metadata_case(tmp_path):
    state, _ = _sample_repository()
    blobs = [fetch_metadata(state, role) for role in RoleKind]
    return blobs, lambda data: serialize_canonical(parse(data, Mode.FIXED_BINARY), Mode.FIXED_BINARY)


def _metadata_json_case(tmp_path):
    state, _ = _sample_repository()
    blobs = [serialize_canonical(state.metadata.by_role(role), Mode.JSON) for role in RoleKind]
    return blobs, lambda data: serialize_canonical(parse(data, Mode.JSON), Mode.JSON)


def _token_case(tmp_path):
    _, token = _sample_repository()
    return [encode_token(token)], lambda data: encode_token(decode_token(data))


def _envelope_case(tmp_path):
    state, _ = _sample_repository()
    return [state.envelopes["fw"]], lambda data: serialize_envelope(parse_envelope(data))


def _controller_case(tmp_path):
    state, _ = _sample_repository()
    ctrl = Controller(
        trusted_root=state.metadata.root,
        mode=Mode.FIXED_BINARY,
        policy=LocalPolicy(window=(1, 9), allowed_models=frozenset({3, 7})),
        clock=4,
        rng=random.Random(0),
    )
    ctrl.trust.last_seen = {RoleKind.ROOT: 1, RoleKind.TARGETS: 3}
    for device_id in (1, 2):
        ctrl.enroll(device_id, 3, bytes([device_id]) * 32, device_id, bytes(32))
    ctrl.seen_targets = {"fw-a": bytes(32), "fw-b": b"\x01" * 32}
    ctrl.nonces_drawn = 5
    ctrl.nonce_log = [b"\x09" * 16, b"\x02" * 16]
    # one file round trip; the mutants go through the bytes the files hold
    sample = encode_controller(ctrl)
    assert _file_round_trip(tmp_path, load_controller, save_controller, sample) == sample
    return [sample], lambda data: encode_controller(decode_controller(data))


def _flash_case(tmp_path):
    _, token = _sample_repository()
    device = Device(3, 1, crypto.signing_key_from_seed(bytes(range(32))).public, b"\x07" * 32, rng=random.Random(0))
    device.provision_firmware(b"\x5a" * 8, token)
    device._banks[1] = Bank(artifact=b"plain", version=3)
    device.attest(b"\x01" * 16)
    device.attest(b"\x02" * 16)
    sample = encode_flash(device)
    assert _file_round_trip(tmp_path, load_flash, save_flash, sample) == sample
    return [sample], lambda data: encode_flash(decode_flash(data))


def _install_status_case(tmp_path):
    outcome = InstallOutcome(InstallOutcome.ROLLED_BACK, version=3, reason="validation_after_write_failed:é")
    return [outcome.encode()], lambda data: InstallOutcome.decode(data).encode()


def _repository_case(tmp_path):
    # unpublished, so the archive is empty: an archived set is ~700 bytes the
    # loader takes as they are, which would multiply this case's round trips
    # for no decoding; test_repository covers its exact round trip
    save_repository(_fresh_repository(), str(tmp_path / "in"))
    sample = (tmp_path / "in" / "private.bin").read_bytes()
    save_repository(load_repository(str(tmp_path / "in")), str(tmp_path / "out"))
    assert (tmp_path / "out" / "private.bin").read_bytes() == sample
    return [sample], lambda data: _encode_private(SimpleNamespace(**_decode_private(data)))


def _wire_frame_case(tmp_path):
    report = AttestationReport(device_id=2, nonce=b"\x01" * 4, measurement=b"\x02" * 4, tag=b"\x03" * 4)
    request = _encode_frame({"op": "exchange", "args": [[b"\x00\x01", b"\xff" * 3], RoleKind.TARGETS, report]})
    reply = _encode_frame({"ok": False, "error": ReplayOrReorder(3, 5)})
    return [request, reply], lambda data: _encode_frame(_decode_frame(data))


@pytest.mark.parametrize(
    "case",
    [_metadata_case, _metadata_json_case, _token_case, _envelope_case, _controller_case, _flash_case, _install_status_case, _repository_case, _wire_frame_case],
    ids=["metadata", "metadata-json", "token", "envelope", "controller-state", "flash", "install-status", "repository-private", "wire-frame"],
)
def test_accepted_single_byte_mutants_reencode_to_themselves(tmp_path, case):
    """Each byte of each sample is set to 0x00, 0x01, 0x02, 0x80, 0xFF, and its
    own value plus and minus 1 (which turn a sorted key into its neighbour).
    A mutant the decoder accepts must re-encode to exactly its own bytes, so
    no two byte strings decode to one value."""
    samples, round_trip = case(tmp_path)
    for sample in samples:
        assert round_trip(sample) == sample
        for position, original in enumerate(sample):
            for value in {0x00, 0x01, 0x02, 0x80, 0xFF, (original + 1) % 256, (original - 1) % 256} - {original}:
                mutant = sample[:position] + bytes([value]) + sample[position + 1 :]
                try:
                    reencoded = round_trip(mutant)
                except ParseError:
                    continue
                assert reencoded == mutant, (position, value)


# --- every saver replaces its files whole ------------------------------------------------

class _HalfWrite:
    """A file object that writes half of the bytes it is given and then fails."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data) -> int:
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _files(directory) -> dict[str, tuple[bytes, int]]:
    """(bytes, permission bits) of every file under ``directory``, by relative path."""
    found = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, directory)] = (fh.read(), stat.S_IMODE(os.stat(path).st_mode))
    return found


def _controller_saves():
    ctrl = Controller(trusted_root=_fresh_repository().metadata.root, mode=Mode.FIXED_BINARY, policy=LocalPolicy())

    def save(path: str, clock: int) -> None:
        ctrl.clock = clock
        save_controller(ctrl, path)

    return save, load_controller


def _flash_saves():
    device = Device(3, 1, bytes(32), b"\x07" * 32, rng=random.Random(0))

    def save(path: str, clock: int) -> None:
        device.attest(bytes([clock]) * 16)
        save_flash(device, path)

    return save, load_flash


def _repository_saves():
    state = _sample_repository()[0]
    return (lambda path, clock: save_repository(advance_clock(state, clock), path)), load_repository


@pytest.mark.parametrize("case", [_controller_saves, _flash_saves, _repository_saves], ids=["controller", "flash", "repository"])
def test_a_failed_save_leaves_the_previous_files(tmp_path, monkeypatch, case):
    """A save that fails part-way through a write leaves every file it would
    replace loading as before, and no temporary file; a file a save creates
    has the mode bits ``open`` gives a new file."""
    save, load = case()
    with open(tmp_path / "plain", "wb"):
        pass
    new_file_mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    target = str(tmp_path / "saved")
    save(target, 1)
    before = _files(tmp_path)
    assert {mode for _, mode in before.values()} == {new_file_mode}
    real_open = builtins.open

    def half_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWrite(fh) if "w" in mode or "x" in mode else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", half_open)
        with pytest.raises(WriteFailed, match="cannot write .*: OSError"):
            save(target, 2)
    assert _files(tmp_path) == before
    load(target)


def test_write_file_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    path = tmp_path / "key"
    path.write_bytes(b"old")
    path.chmod(0o600)
    write_file(str(path), b"new")
    assert path.read_bytes() == b"new" and stat.S_IMODE(path.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["key"]
