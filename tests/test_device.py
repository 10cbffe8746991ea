"""Device behavior: channel endpoint, install regimes, boot, attestation,
fault injection, secret confinement, and flash persistence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assured import crypto
from assured.authorization import (
    Constraints,
    build_envelope,
    issue_token,
    serialize_envelope,
)
from assured.crypto import MSG_CHUNK, MSG_CONFIRM, MSG_FINAL_CHUNK, MSG_STATUS
from assured.device import (
    BANK_WRITE_CHUNK,
    Bank,
    Device,
    InstallMode,
    InstallOutcome,
    SimulatedPowerLoss,
    load_flash,
    save_flash,
)
from assured.errors import AttestationRefused, AuthFailure, ChannelError, ParseError
from assured.metadata import RoleKind
from assured.repository import fetch_metadata, new_repository, publish_vanilla

K_ATT = b"\x33" * 32
MODEL, DEVICE_ID = 100, 7


def make_device(oem_key, mode=InstallMode.DUAL_BANK, version=1):
    device = Device(
        device_model=MODEL,
        device_id=DEVICE_ID,
        oem_public=oem_key.public,
        attestation_key=K_ATT,
        install_mode=mode,
        rng=random.Random(1),
    )
    artifact = b"\x01" * 300
    token = issue_token(
        oem_key, artifact, Constraints(device_model=MODEL, device_id=DEVICE_ID, new_version=version)
    )
    device.provision_firmware(artifact, token)
    return device


def make_envelope(oem_key, version=2, model=MODEL, device_id=0, size=500, prev=0):
    artifact = bytes([version % 251]) * size
    token = issue_token(
        oem_key,
        artifact,
        Constraints(
            device_model=model, device_id=device_id, required_prev_version=prev, new_version=version
        ),
    )
    return serialize_envelope(build_envelope(token, artifact)), artifact


class Channel(crypto.Channel):
    """The controller end of a confirmed channel, for driving a device directly."""

    def __init__(self, device: Device, controller_nonce: bytes = b"\x44" * 16):
        device_nonce = device.channel_accept(controller_nonce)
        super().__init__(K_ATT, device.device_id, controller_nonce, device_nonce, controller=True)
        self.device = device
        replies = device.channel_receive([self.seal(MSG_CONFIRM, self.transcript)])
        assert self.open(replies[0]) == (MSG_CONFIRM, self.transcript)

    def deliver(self, envelope_bytes: bytes, chunk: int = 4096) -> InstallOutcome:
        chunks = [envelope_bytes[i : i + chunk] for i in range(0, len(envelope_bytes), chunk)]
        frames = [
            self.seal(MSG_FINAL_CHUNK if i == len(chunks) - 1 else MSG_CHUNK, part)
            for i, part in enumerate(chunks)
        ]
        replies = self.device.channel_receive(frames)
        kind, status = self.open(replies[-1])
        assert kind == MSG_STATUS
        return InstallOutcome.decode(status)


class TestHandshake:
    def test_fresh_device_nonce_gives_fresh_keys(self, oem_key):
        device = make_device(oem_key)
        nonce = b"\x44" * 16
        first = device.channel_accept(nonce)
        second = device.channel_accept(nonce)
        assert first != second
        assert crypto.derive_session_keys(K_ATT, nonce, first) != crypto.derive_session_keys(
            K_ATT, nonce, second
        )

    def test_both_sides_derive_identical_keys(self, oem_key):
        device = make_device(oem_key)
        Channel(device)  # asserts the mutual confirmation internally

    def test_prior_session_frames_rejected(self, oem_key):
        device = make_device(oem_key)
        channel = Channel(device)
        stale = channel.seal(MSG_FINAL_CHUNK, b"leftover")
        Channel(device)  # new session, new keys
        with pytest.raises(ChannelError):
            device.channel_receive([stale])

    def test_no_session_rejects_frames(self, oem_key):
        device = Device(MODEL, DEVICE_ID, oem_key.public, K_ATT)
        with pytest.raises(ChannelError):
            device.channel_receive([b"\x00" * 64])

    def test_envelope_before_confirmation_rejected(self, oem_key):
        device = make_device(oem_key)
        nonce = b"\x44" * 16
        device_nonce = device.channel_accept(nonce)
        channel = crypto.Channel(K_ATT, DEVICE_ID, nonce, device_nonce, controller=True)
        with pytest.raises(ChannelError):
            device.channel_receive([channel.seal(MSG_FINAL_CHUNK, b"data")])

    def test_short_controller_nonce_is_a_channel_error(self, oem_key):
        with pytest.raises(ChannelError):
            make_device(oem_key).channel_accept(b"\x44" * 15)

    def test_reflected_confirm_is_rejected(self, oem_key):
        """Each direction has its own keys, so the device's own confirmation
        sent back to it fails the tag and installs nothing."""
        device = make_device(oem_key)
        nonce = b"\x44" * 16
        channel = crypto.Channel(K_ATT, DEVICE_ID, nonce, device.channel_accept(nonce), controller=True)
        reply = device.channel_receive([channel.seal(MSG_CONFIRM, channel.transcript)])
        with pytest.raises(AuthFailure):
            device.channel_receive(reply)
        assert device.installed_version == 1


class TestReceiveUpdate:
    def test_dual_bank_install_keeps_previous_image(self, oem_key):
        device = make_device(oem_key)
        old_bank = device.active_bank
        envelope_bytes, artifact = make_envelope(oem_key)
        outcome = Channel(device).deliver(envelope_bytes)
        assert outcome == InstallOutcome(InstallOutcome.INSTALLED, version=2)
        assert device.installed_version == 2
        assert device.active_bank == 1 - old_bank
        assert device.bank_version(old_bank) == 1  # rollback capability intact

    def test_multi_frame_delivery(self, oem_key):
        device = make_device(oem_key)
        envelope_bytes, _ = make_envelope(oem_key, size=5000)
        outcome = Channel(device).deliver(envelope_bytes, chunk=512)
        assert outcome.status == InstallOutcome.INSTALLED

    def test_wrong_device_rejected_state_unchanged(self, oem_key):
        device = make_device(oem_key)
        envelope_bytes, _ = make_envelope(oem_key, device_id=DEVICE_ID + 1)
        outcome = Channel(device).deliver(envelope_bytes)
        assert outcome.status == InstallOutcome.REJECTED
        assert outcome.reason == "wrong_device"
        assert device.installed_version == 1

    def test_exactly_one_public_key_verification(self, oem_key):
        device = make_device(oem_key)
        envelope_bytes, _ = make_envelope(oem_key)
        channel = Channel(device)
        before = crypto.VERIFY_COUNTER.read()
        channel.deliver(envelope_bytes)
        assert crypto.VERIFY_COUNTER.read() - before == 1

    def test_malformed_envelope_rejected(self, oem_key):
        device = make_device(oem_key)
        outcome = Channel(device).deliver(b"garbage that is not an envelope")
        assert outcome.status == InstallOutcome.REJECTED
        assert outcome.reason.startswith("malformed_envelope")
        assert device.installed_version == 1

    def test_plaintext_envelope_always_rejected(self, oem_key):
        device = make_device(oem_key)
        envelope_bytes, _ = make_envelope(oem_key)
        outcome = device.receive_unsealed(envelope_bytes)
        assert outcome.status == InstallOutcome.REJECTED
        assert outcome.reason == "no_implicit_auth"
        assert device.installed_version == 1

    def test_single_bank_corrupted_install_flags_replacement(self, oem_key):
        device = make_device(oem_key, mode=InstallMode.SINGLE_BANK)
        envelope_bytes, artifact = make_envelope(oem_key)
        # corrupt the artifact region after the token so only post-write validation can notice
        corrupted = bytearray(envelope_bytes)
        corrupted[-1] ^= 0x01
        outcome = Channel(device).deliver(bytes(corrupted))
        assert outcome.status == InstallOutcome.ROLLED_BACK
        assert "validation_after_write_failed" in outcome.reason
        assert device.needs_replacement
        assert not device.boot().running

    def test_single_bank_happy_path(self, oem_key):
        device = make_device(oem_key, mode=InstallMode.SINGLE_BANK)
        envelope_bytes, _ = make_envelope(oem_key)
        outcome = Channel(device).deliver(envelope_bytes)
        assert outcome.status == InstallOutcome.INSTALLED
        assert device.boot().running


class TestFailurePointInjection:
    def count_writes(self, oem_key) -> int:
        device = make_device(oem_key)
        envelope_bytes, _ = make_envelope(oem_key)
        device.reset_write_counter()
        Channel(device).deliver(envelope_bytes)
        return device._writes_done

    def test_every_injection_point_leaves_device_bootable(self, oem_key):
        total_writes = self.count_writes(oem_key)
        assert total_writes > 5  # staging clear + chunks + token + version + flip
        envelope_template, _ = make_envelope(oem_key)
        for fail_at in range(total_writes):
            device = make_device(oem_key)
            device.reset_write_counter()
            device.faults.fail_after_writes = fail_at
            channel = Channel(device)
            with pytest.raises(SimulatedPowerLoss):
                channel.deliver(envelope_template)
            device.faults.fail_after_writes = None
            result = device.boot()
            assert result.running, f"unbootable after power loss at write {fail_at}"
            assert result.version in (1, 2)

    def test_last_write_is_the_atomic_flip(self, oem_key):
        total_writes = self.count_writes(oem_key)
        device = make_device(oem_key)
        device.reset_write_counter()
        device.faults.fail_after_writes = total_writes - 1  # everything but the flip
        with pytest.raises(SimulatedPowerLoss):
            Channel(device).deliver(make_envelope(oem_key)[0])
        device.faults.fail_after_writes = None
        assert device.boot().version == 1  # staged but never flipped

    @staticmethod
    def chunk_loop(artifact: bytes, writes_done: int, budget: int | None):
        """Reference model: one write starts the image, then one write per
        chunk, power failing once ``budget`` writes are done. Returns the
        staged bytes (None if even the start write failed), the write count
        and whether power failed."""
        staged = None
        steps = [b""] + [artifact[i : i + BANK_WRITE_CHUNK] for i in range(0, len(artifact), BANK_WRITE_CHUNK)]
        for step in steps:
            if budget is not None and writes_done >= budget:
                return staged, writes_done, True
            staged = (staged or b"") + step
            writes_done += 1
        return staged, writes_done, False

    @pytest.mark.parametrize("size", [0, 5 * BANK_WRITE_CHUNK + 17])
    @pytest.mark.parametrize("writes_before", [0, 3])
    def test_staging_matches_chunk_loop_at_every_injection_point(self, oem_key, size, writes_before):
        artifact = bytes(i % 251 for i in range(size))
        chunks = -(-size // BANK_WRITE_CHUNK)
        for budget in [None, *range(writes_before + chunks + 3)]:
            device = make_device(oem_key)
            device._writes_done = writes_before
            device.faults.fail_after_writes = budget
            bank = Bank()
            try:
                device._write_artifact(bank, artifact)
                lost = False
            except SimulatedPowerLoss:
                lost = True
            staged, writes, expect_lost = self.chunk_loop(artifact, writes_before, budget)
            assert (bank.artifact, device._writes_done, lost) == (staged, writes, expect_lost), budget
            if staged is not None:
                k = writes - writes_before - 1
                assert bank.artifact == artifact[: k * BANK_WRITE_CHUNK]


class TestBoot:
    def test_boot_after_install(self, oem_key):
        device = make_device(oem_key)
        Channel(device).deliver(make_envelope(oem_key)[0])
        assert device.boot() == type(device.boot())(running=True, version=2)

    def test_corrupted_active_falls_back(self, oem_key):
        device = make_device(oem_key)
        Channel(device).deliver(make_envelope(oem_key)[0])
        device.simulate_flash_corruption(device.active_bank, bit_offset=5)
        result = device.boot()
        assert result.running and result.version == 1 and result.reason == "fallback"

    def test_both_banks_corrupted_halts(self, oem_key):
        device = make_device(oem_key)
        Channel(device).deliver(make_envelope(oem_key)[0])
        device.simulate_flash_corruption(0, bit_offset=5)
        device.simulate_flash_corruption(1, bit_offset=5)
        result = device.boot()
        assert not result.running and result.reason == "no_valid_bank"

    def test_empty_device_halts(self, oem_key):
        device = Device(MODEL, DEVICE_ID, oem_key.public, K_ATT)
        assert not device.boot().running

    @pytest.mark.parametrize("model, device_id", [(MODEL + 1, 0), (MODEL, DEVICE_ID + 1)], ids=["model", "id"])
    def test_a_factory_token_for_another_device_halts(self, oem_key, model, device_id):
        """Boot checks the token's identity clauses as install does: an image
        signed for another model, or for another device id, does not run."""
        device = Device(MODEL, DEVICE_ID, oem_key.public, K_ATT)
        artifact = b"\x01" * 300
        constraints = Constraints(device_model=model, device_id=device_id, new_version=1)
        device.provision_firmware(artifact, issue_token(oem_key, artifact, constraints))
        result = device.boot()
        assert not result.running and result.reason == "no_valid_bank"


class TestAttestation:
    def test_report_verifies(self, oem_key):
        device = make_device(oem_key)
        nonce = b"\x10" * 16
        report = device.attest(nonce)
        expected = crypto.mac(
            K_ATT, DEVICE_ID.to_bytes(8, "big") + nonce + report.measurement
        )
        assert report.tag == expected
        assert report.measurement == crypto.hash_data(b"\x01" * 300)

    def test_nonce_replay_refused(self, oem_key):
        device = make_device(oem_key)
        device.attest(b"\x10" * 16)
        with pytest.raises(AttestationRefused):
            device.attest(b"\x10" * 16)

    @pytest.mark.parametrize("length", [0, 15, 17])
    def test_nonce_of_another_length_refused(self, oem_key, length):
        device = make_device(oem_key)
        with pytest.raises(AttestationRefused, match="nonce must be 16 bytes"):
            device.attest(b"\x10" * length)
        assert device.attest(b"\x10" * 16).nonce == b"\x10" * 16

    def test_measurement_tracks_active_bank(self, oem_key):
        device = make_device(oem_key)
        envelope_bytes, artifact = make_envelope(oem_key)
        Channel(device).deliver(envelope_bytes)
        report = device.attest(b"\x11" * 16)
        assert report.measurement == crypto.hash_data(artifact)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_installed_version_strictly_increases(versions):
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    device = make_device(oem)
    accepted = [device.installed_version]
    channel = Channel(device)
    for version in versions:
        if version < 1:
            continue
        envelope_bytes, _ = make_envelope(oem, version=version, size=96)
        outcome = channel.deliver(envelope_bytes)
        if outcome.status == InstallOutcome.INSTALLED:
            assert outcome.version > accepted[-1]
            accepted.append(outcome.version)
        else:
            assert version <= accepted[-1]
            assert device.installed_version == accepted[-1]
    assert accepted == sorted(set(accepted))


class TestTufComparisonMode:
    def make_vanilla_world(self, oem_key):
        keys = lambda label, n: [  # noqa: E731
            crypto.signing_key_from_seed(label * 16 + bytes([i]) * 16) for i in range(n)
        ]
        state = new_repository(
            root_keys=keys(b"r", 2),
            targets_keys=keys(b"t", 2),
            snapshot_keys=keys(b"s", 1),
            timestamp_keys=keys(b"w", 1),
        )
        artifact = b"\x77" * 256
        state = publish_vanilla(state, "fw", artifact)
        return state, artifact

    def test_six_verifications_on_device(self, oem_key):
        state, artifact = self.make_vanilla_world(oem_key)
        device = Device(MODEL, DEVICE_ID, oem_key.public, K_ATT)
        device.provision_trusted_root(state.metadata.root)
        blobs = {role: fetch_metadata(state, role) for role in RoleKind}
        before = crypto.VERIFY_COUNTER.read()
        outcome = device.receive_update_tuf(blobs, "fw", artifact, state.mode, now=state.clock)
        assert crypto.VERIFY_COUNTER.read() - before == 6
        assert outcome.status == InstallOutcome.INSTALLED

    def test_wrong_artifact_rejected(self, oem_key):
        state, artifact = self.make_vanilla_world(oem_key)
        device = Device(MODEL, DEVICE_ID, oem_key.public, K_ATT)
        device.provision_trusted_root(state.metadata.root)
        blobs = {role: fetch_metadata(state, role) for role in RoleKind}
        outcome = device.receive_update_tuf(blobs, "fw", artifact + b"x", state.mode)
        assert outcome.status == InstallOutcome.REJECTED

    def test_install_takes_the_dual_bank_write_steps(self, oem_key):
        """clear, start, one step per chunk, token, version, flip: the same
        steps as a dual-bank install of an image of the same size, and power
        lost before the flip leaves the installed version where it was."""
        state, artifact = self.make_vanilla_world(oem_key)
        blobs = {role: fetch_metadata(state, role) for role in RoleKind}
        dual = make_device(oem_key)
        dual.reset_write_counter()
        assert Channel(dual).deliver(make_envelope(oem_key, size=len(artifact))[0]).status == InstallOutcome.INSTALLED
        steps = 5 + -(-len(artifact) // BANK_WRITE_CHUNK)
        assert dual._writes_done == steps

        def tuf_device(budget):
            device = make_device(oem_key)
            device.provision_trusted_root(state.metadata.root)
            device.reset_write_counter()
            device.faults.fail_after_writes = budget
            return device

        device = tuf_device(None)
        outcome = device.receive_update_tuf(blobs, "fw", artifact, state.mode, now=state.clock)
        assert (outcome.status, device._writes_done) == (InstallOutcome.INSTALLED, steps)
        device = tuf_device(steps - 1)
        with pytest.raises(SimulatedPowerLoss):
            device.receive_update_tuf(blobs, "fw", artifact, state.mode, now=state.clock)
        assert device.installed_version == 1


class TestSecretConfinement:
    SIMULATION_HOOKS = {
        "faults",
        "simulate_flash_corruption",
        "reset_write_counter",
        "provision_firmware",
        "provision_trusted_root",
        "needs_replacement",
    }

    def test_no_public_surface_exposes_secrets(self, oem_key):
        device = make_device(oem_key)
        public_names = [name for name in dir(device) if not name.startswith("_")]
        for name in public_names:
            value = getattr(device, name)
            if callable(value) or name in self.SIMULATION_HOOKS:
                continue
            assert value != K_ATT, f"{name} leaks the attestation key"
            assert value != oem_key.public, f"{name} leaks the secure-store trust anchor"
        assert not hasattr(device, "k_att")
        assert not hasattr(device, "attestation_key")
        assert not hasattr(device, "oem_public")
        assert not hasattr(device, "banks")

    def test_instance_dict_secrets_are_name_mangled(self, oem_key):
        device = make_device(oem_key)
        plain = {k for k in vars(device) if not k.startswith("_")}
        assert plain <= {"device_model", "device_id", "install_mode", "faults", "needs_replacement"}

    def test_reports_are_the_only_key_dependent_output(self, oem_key):
        # same state, different attestation keys: only attest() output differs
        def build(katt):
            device = Device(MODEL, DEVICE_ID, oem_key.public, katt, rng=random.Random(5))
            artifact = b"\x01" * 300
            token = issue_token(
                oem_key,
                artifact,
                Constraints(device_model=MODEL, device_id=DEVICE_ID, new_version=1),
            )
            device.provision_firmware(artifact, token)
            return device

        a, b = build(b"\x01" * 32), build(b"\x02" * 32)
        assert a.boot() == b.boot()
        assert a.installed_version == b.installed_version
        report_a, report_b = a.attest(b"\x10" * 16), b.attest(b"\x10" * 16)
        assert report_a.measurement == report_b.measurement
        assert report_a.tag != report_b.tag


def valid_flash_bytes(tmp_path, oem_key) -> bytes:
    device = make_device(oem_key)
    Channel(device).deliver(make_envelope(oem_key)[0])
    device.attest(b"\x20" * 16)
    path = str(tmp_path / "valid.flash")
    save_flash(device, path)
    with open(path, "rb") as fh:
        return fh.read()


ACTIVE_BANK_AT, INSTALL_MODE_AT = 4 + 8 + 8, 4 + 8 + 8 + 1 + 8  # magic, model, id, [active], version, [mode]


class TestFlashPersistence:
    @pytest.mark.parametrize("offset", [ACTIVE_BANK_AT, INSTALL_MODE_AT])
    @pytest.mark.parametrize("value", [2, 0xFF])
    def test_out_of_range_flag_is_parse_error(self, tmp_path, oem_key, offset, value):
        data = bytearray(valid_flash_bytes(tmp_path, oem_key))
        data[offset] = value
        path = tmp_path / "bad.flash"
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_flash(str(path))

    def test_round_trip(self, tmp_path, oem_key):
        device = make_device(oem_key)
        Channel(device).deliver(make_envelope(oem_key)[0])
        device.attest(b"\x20" * 16)
        path = str(tmp_path / "dev.flash")
        save_flash(device, path)
        loaded = load_flash(path)
        assert loaded.device_model == device.device_model
        assert loaded.device_id == device.device_id
        assert loaded.installed_version == device.installed_version
        assert loaded.active_bank == device.active_bank
        assert loaded.boot().running
        # served-nonce log survives, so replay is still refused
        with pytest.raises(AttestationRefused):
            loaded.attest(b"\x20" * 16)
        # secure store survives: a fresh attestation still verifies
        report = loaded.attest(b"\x21" * 16)
        expected = crypto.mac(K_ATT, DEVICE_ID.to_bytes(8, "big") + b"\x21" * 16 + report.measurement)
        assert report.tag == expected


@pytest.fixture(scope="module")
def flash_sample(tmp_path_factory):
    oem = crypto.signing_key_from_seed(bytes(range(32)))
    workdir = tmp_path_factory.mktemp("flash")
    return valid_flash_bytes(workdir, oem), str(workdir / "fuzzed.flash")


def _load_flash_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        load_flash(path)
    except ParseError:
        pass


@given(data=st.binary(max_size=600))
@settings(max_examples=200, deadline=None)
def test_load_flash_arbitrary_bytes_only_parse_error(flash_sample, data):
    _, path = flash_sample
    _load_flash_bytes(path, b"ASFL" + data)
    _load_flash_bytes(path, data)


@given(position=st.integers(min_value=0), value=st.integers(min_value=0, max_value=255))
@settings(max_examples=300, deadline=None)
def test_load_flash_single_byte_mutation_only_parse_error(flash_sample, position, value):
    valid, path = flash_sample
    mutated = bytearray(valid)
    mutated[position % len(valid)] = value
    _load_flash_bytes(path, bytes(mutated))


def test_load_flash_rejects_trailing_bytes(tmp_path, oem_key):
    data = valid_flash_bytes(tmp_path, oem_key)
    path = tmp_path / "bad.flash"
    path.write_bytes(data + b"GARBAGE")
    with pytest.raises(ParseError) as excinfo:
        load_flash(str(path))
    assert excinfo.value.position == len(data)


# after the magic, model, id, active bank, installed version and install mode:
# the replacement flag, then bank 0's flag, version and token flag
REPLACEMENT_AT = INSTALL_MODE_AT + 1
BANK_FLAG_AT = REPLACEMENT_AT + 1
TOKEN_FLAG_AT = BANK_FLAG_AT + 1 + 8


@pytest.mark.parametrize("offset", [REPLACEMENT_AT, BANK_FLAG_AT, TOKEN_FLAG_AT])
@pytest.mark.parametrize("value", [2, 0x80, 0xFF])
def test_load_flash_rejects_a_flag_byte_other_than_zero_or_one(tmp_path, oem_key, offset, value):
    data = bytearray(valid_flash_bytes(tmp_path, oem_key))
    assert data[offset] in (0, 1)
    data[offset] = value
    path = tmp_path / "bad.flash"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError) as excinfo:
        load_flash(str(path))
    assert excinfo.value.position == offset


def test_load_flash_rejects_a_token_field_set_on_a_bank_without_token(tmp_path, oem_key):
    device = make_device(oem_key)
    device._banks[1] = Bank(artifact=b"\x07" * 40, version=3)  # as receive_update_tuf leaves a bank
    path = tmp_path / "dev.flash"
    save_flash(device, str(path))
    data = path.read_bytes()
    assert load_flash(str(path))._banks[1] == device._banks[1]
    # bank 1's token field is followed by its length(8) and artifact(40), then
    # the two 32-byte keys and an empty nonce list(4)
    token_at = len(data) - 4 - 32 - 32 - 40 - 8 - 136
    assert data[token_at - 1 : token_at + 136] == bytes(137)
    path.write_bytes(data[:token_at] + b"\x01" + data[token_at + 1 :])
    with pytest.raises(ParseError) as excinfo:
        load_flash(str(path))
    assert excinfo.value.position == token_at


@pytest.mark.parametrize("edit", ["repeat", "swap"])
def test_load_flash_rejects_served_nonces_out_of_order_or_repeated(tmp_path, oem_key, edit):
    device = make_device(oem_key)
    device.attest(b"\x01" * 16)
    device.attest(b"\x02" * 16)
    path = tmp_path / "dev.flash"
    save_flash(device, str(path))
    data = bytearray(path.read_bytes())
    first, second = len(data) - 32, len(data) - 16
    assert data[first:second] == b"\x01" * 16 and data[second:] == b"\x02" * 16
    data[second:] = b"\x01" * 16
    if edit == "swap":
        data[first:second] = b"\x02" * 16
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError) as excinfo:
        load_flash(str(path))
    assert excinfo.value.position == second


def test_install_status_layout():
    outcome = InstallOutcome(InstallOutcome.ROLLED_BACK, version=0x0102, reason="é")
    assert outcome.encode() == b"\x02" + (0x0102).to_bytes(8, "big") + b"\x00\x02" + "é".encode()
    assert InstallOutcome.decode(outcome.encode()) == outcome


@pytest.mark.parametrize(
    "data",
    [b"", b"[]", b"\x03" + bytes(10), b"\x00" + bytes(9), b"\x00" + bytes(10) + b"x", b"\x00" + bytes(9) + b"\x01\xff"],
    ids=["empty", "json-list", "unknown-status", "truncated", "trailing-byte", "bad-utf8"],
)
def test_install_status_rejects_non_canonical_bytes(data):
    with pytest.raises(ParseError):
        InstallOutcome.decode(data)


@given(data=st.binary(max_size=40))
@settings(max_examples=300, deadline=None)
def test_install_status_arbitrary_bytes_only_parse_error(data):
    try:
        outcome = InstallOutcome.decode(data)
    except ParseError:
        return
    assert outcome.encode() == data
