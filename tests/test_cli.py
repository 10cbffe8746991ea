"""End-to-end CLI workflows against real files in a temp directory."""

import hashlib
import json
import os
import random
import socket
import subprocess
import sys

import pytest

from assured import cli
from assured.cli import main
from assured.controller import load_controller
from assured.device import load_flash, save_flash
from assured.harness import AdversaryRow
from assured.transport import LocalDevicePort


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_full_file_based_update_flow(workspace, capsys):
    (workspace / "fw1.bin").write_bytes(b"\x01" * 200)
    (workspace / "fw2.bin").write_bytes(b"\x02" * 300)

    code, out = run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    assert code == 0
    oem_public = out.strip().rsplit(" ", 1)[-1]

    code, _ = run(
        capsys, "oem", "issue", "--key", "oem.key", "--artifact", "fw1.bin",
        "--new-version", "1", "--model", "5", "--device", "9", "--out", "fw1.env",
    )
    assert code == 0
    code, _ = run(
        capsys, "oem", "issue", "--key", "oem.key", "--artifact", "fw2.bin",
        "--new-version", "2", "--model", "5", "--out", "fw2.env",
    )
    assert code == 0

    code, out = run(capsys, "token", "dump", "fw1.env")
    assert code == 0
    assert "new_version            1" in out
    assert "device_model           5" in out

    code, _ = run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    assert code == 0
    code, _ = run(capsys, "repo", "publish", "--dir", "repo", "--name", "fw2", "--envelope", "fw2.env")
    assert code == 0
    assert os.path.exists("repo/targets.2.meta")

    attestation_key = "ab" * 32
    code, _ = run(
        capsys, "device", "init", "--flash", "dev.flash", "--model", "5", "--id", "9",
        "--oem-public", oem_public, "--attestation-key", attestation_key,
        "--envelope", "fw1.env", "--seed", "3",
    )
    assert code == 0

    code, _ = run(capsys, "controller", "init", "--state", "ctrl.bin", "--repo", "repo", "--seed", "4")
    assert code == 0
    fw1_digest = hashlib.sha256(b"\x01" * 200).hexdigest()
    code, _ = run(
        capsys, "controller", "enroll", "--state", "ctrl.bin", "--device", "9", "--model", "5",
        "--attestation-key", attestation_key, "--version", "1", "--digest", fw1_digest,
    )
    assert code == 0

    code, out = run(capsys, "controller", "sync", "--state", "ctrl.bin", "--repo", "repo")
    assert code == 0
    assert "1 new envelope" in out

    code, out = run(
        capsys, "controller", "deliver", "--state", "ctrl.bin", "--repo", "repo",
        "--device", "9", "--name", "fw2", "--flash", "dev.flash", "--seed", "5",
    )
    assert code == 0
    assert "installed" in out

    code, out = run(capsys, "device", "boot", "--flash", "dev.flash")
    assert code == 0
    assert "running version 2" in out

    code, out = run(
        capsys, "controller", "attest", "--state", "ctrl.bin", "--device", "9",
        "--flash", "dev.flash", "--seed", "6",
    )
    assert code == 0
    assert "attestation verified" in out

    # an envelope missing from the repository directory is a loud sync failure
    (workspace / "fw3.bin").write_bytes(b"\x03" * 100)
    run(capsys, "oem", "issue", "--key", "oem.key", "--artifact", "fw3.bin",
        "--new-version", "3", "--model", "5", "--out", "fw3.env")
    run(capsys, "repo", "publish", "--dir", "repo", "--name", "fw3", "--envelope", "fw3.env")
    os.remove("repo/envelopes/fw3.env")
    code, out = run(capsys, "controller", "sync", "--state", "ctrl.bin", "--repo", "repo")
    assert code == 1
    assert "NotFound" in out


def test_attest_twice_with_one_seed(workspace, capsys):
    (workspace / "fw1.bin").write_bytes(b"\x01" * 200)
    _, out = run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    oem_public = out.strip().rsplit(" ", 1)[-1]
    run(
        capsys, "oem", "issue", "--key", "oem.key", "--artifact", "fw1.bin",
        "--new-version", "1", "--model", "5", "--device", "9", "--out", "fw1.env",
    )
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    attestation_key = "ab" * 32
    run(
        capsys, "device", "init", "--flash", "dev.flash", "--model", "5", "--id", "9",
        "--oem-public", oem_public, "--attestation-key", attestation_key,
        "--envelope", "fw1.env", "--seed", "3",
    )
    run(capsys, "controller", "init", "--state", "ctrl.bin", "--repo", "repo")
    code, _ = run(
        capsys, "controller", "enroll", "--state", "ctrl.bin", "--device", "9", "--model", "5",
        "--attestation-key", attestation_key, "--version", "1",
        "--digest", hashlib.sha256(b"\x01" * 200).hexdigest(),
    )
    assert code == 0
    for _ in range(2):
        code, out = run(
            capsys, "controller", "attest", "--state", "ctrl.bin", "--device", "9",
            "--flash", "dev.flash", "--seed", "6",
        )
        assert code == 0, out
        assert "attestation verified" in out


def test_a_seeded_attestation_recovers_after_a_refusal(workspace, capsys):
    """A refused attestation still counts the nonce it drew, so the next run
    with the same seed draws a fresh nonce and verifies."""
    _fleet(workspace, capsys)
    device = load_flash("dev.flash")
    device.attest(random.Random(f"6:{load_controller('ctrl.bin').nonces_drawn}").randbytes(16))
    save_flash(device, "dev.flash")
    argv = ["controller", "attest", "--state", "ctrl.bin", "--device", "9", "--flash", "dev.flash", "--seed", "6"]
    code, out = run(capsys, *argv)
    assert code == 1
    _one_error_line(out, "AttestationRefused")
    assert load_controller("ctrl.bin").nonces_drawn == 1
    code, out = run(capsys, *argv)
    assert code == 0 and "attestation verified" in out, out


def test_repo_refresh_and_advance(workspace, capsys):
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    code, _ = run(capsys, "repo", "advance", "--dir", "repo", "--ticks", "5")
    assert code == 0
    code, _ = run(capsys, "repo", "refresh", "--dir", "repo")
    assert code == 0


def test_scenario_run_builtin(workspace, capsys):
    code, out = run(capsys, "scenario", "run", "happy-path", "--seed", "7", "--out", "transcript.txt")
    assert code == 0
    assert "installed:2" in out
    assert (workspace / "transcript.txt").read_text() == out


def test_scenario_run_attack_builtin_multiprocess(workspace, capsys, monkeypatch):
    # the server processes import this same package, also from the temp directory
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code, out = run(capsys, "scenario", "run", "channel-replay", "--multiprocess")
    assert code == 0
    assert "delivery-failed:replay_or_reorder" in out


def test_scenario_run_multiprocess_with_a_relative_pythonpath(workspace, capsys, monkeypatch):
    # "src" names nothing in the temp directory: the server processes must
    # import the package this process runs
    monkeypatch.setenv("PYTHONPATH", "src")
    code, out = run(capsys, "scenario", "run", "channel-replay", "--multiprocess")
    assert code == 0
    assert "delivery-failed:replay_or_reorder" in out


def test_scenario_run_multiprocess_reports_a_server_that_does_not_start(workspace, capsys, monkeypatch):
    # with no standard library to import, a server process exits before it listens
    monkeypatch.setenv("PYTHONHOME", str(workspace / "no-python-home"))
    code, out = run(capsys, "scenario", "run", "channel-replay", "--multiprocess")
    assert code == 1
    assert out.startswith("error: AssuredError: server process failed to start")
    assert "Traceback" not in out


def test_scenario_run_file(workspace, capsys):
    (workspace / "s.scn").write_text(
        "enroll d model=1 id=1\nissue f version=2 model=1\npublish f -> ok\nsync -> ok:1\ndeliver d f -> installed:2\n"
    )
    code, _ = run(capsys, "scenario", "run", "s.scn", "--seed", "8")
    assert code == 0


def test_scenario_failed_expectation_exits_nonzero(workspace, capsys):
    (workspace / "bad.scn").write_text("enroll d model=1 id=1\nissue f version=2\npublish f -> rejected\n")
    code, out = run(capsys, "scenario", "run", "bad.scn")
    assert code == 1
    assert "FAIL" in out


def test_bench_with_records(workspace, capsys):
    code, out = run(capsys, "bench", "--seed", "1", "--records", "bench.jsonl")
    assert code == 0
    assert "bench mode=assured" in out and "bench mode=tuf" in out
    records = [json.loads(line) for line in (workspace / "bench.jsonl").read_text().splitlines()]
    by_key = {(r["mode"], r["metric"]): r["value"] for r in records}
    assert by_key[("assured", "device_verify_count")] == 1
    assert by_key[("tuf", "device_verify_count")] == 6
    assert by_key[("assured", "device_metadata_bytes")] == 188


def test_adversary_suite_cli(workspace, capsys):
    code, out = run(capsys, "adversary-suite", "--seed", "3")
    assert code == 0
    assert "all 11 attacks detected" in out


def test_adversary_suite_names_each_undetected_attack(workspace, capsys, monkeypatch):
    rows = [
        AdversaryRow("replay", "channel", True, "auth_failure"),
        AdversaryRow("forged token", "device", False, "installed"),
    ]
    monkeypatch.setattr(cli, "run_adversary_suite", lambda seed: rows)
    assert main(["adversary-suite"]) == 1
    err = capsys.readouterr().err
    assert "UNDETECTED: forged token (installed)" in err
    assert "replay" not in err


def test_token_dump_rejects_garbage(workspace, capsys):
    (workspace / "junk.bin").write_bytes(b"\x00" * 10)
    with pytest.raises(SystemExit):
        main(["token", "dump", "junk.bin"])


@pytest.mark.parametrize(
    "argv",
    [
        ["controller", "sync", "--state", "nope.state", "--repo", "repo"],
        ["device", "boot", "--flash", "nope.flash"],
    ],
    ids=["controller-state", "flash"],
)
def test_missing_state_file_is_a_parse_error(workspace, capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith("error: ParseError: missing file")
    assert argv[3] in out


@pytest.mark.parametrize(
    "argv",
    [
        ["oem", "issue", "--key", "nope.key", "--artifact", "fw.bin", "--new-version", "1", "--out", "fw.env"],
        ["oem", "issue", "--key", "oem.key", "--artifact", "nope.bin", "--new-version", "1", "--out", "fw.env"],
        ["repo", "publish", "--dir", "repo", "--name", "fw", "--envelope", "nope.env"],
        ["device", "init", "--flash", "dev.flash", "--model", "1", "--id", "1", "--oem-public", "00" * 32,
         "--envelope", "nope.env"],
        ["token", "dump", "nope.env"],
    ],
    ids=["oem-key", "artifact", "publish-envelope", "device-envelope", "token-dump"],
)
def test_missing_input_file_is_a_parse_error(workspace, capsys, argv):
    run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    (workspace / "fw.bin").write_bytes(b"\x01" * 16)
    code, out = run(capsys, *argv)
    assert code == 1
    missing = next(arg for arg in argv if arg.startswith("nope"))
    assert out == f"error: ParseError: missing file (at {missing})\n"
    assert not os.path.exists("fw.env") and not os.path.exists("dev.flash")


def test_repo_advance_rejects_a_clock_outside_u64(workspace, capsys):
    assert run(capsys, "repo", "init", "--dir", "repo", "--seed", "1")[0] == 0
    before = (workspace / "repo" / "private.bin").read_bytes()
    for ticks in ("-5", "99999999999999999999"):
        code, out = run(capsys, "repo", "advance", "--dir", "repo", "--ticks", ticks)
        assert code == 1
        assert out.startswith(f"error: ParseError: clock 0 + {ticks} ticks is outside") and out.count("\n") == 1
    assert (workspace / "repo" / "private.bin").read_bytes() == before


def test_an_unreachable_repository_is_one_error_line(workspace):
    with socket.socket() as sock:  # a port just bound and released: nothing listens there
        sock.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % sock.getsockname()[1]
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    # -X dev reports a socket left unclosed as a ResourceWarning on stderr
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "assured", "controller", "init", "--state", "s", "--repo", address],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))),
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: AssuredError: cannot connect to {address}: ConnectionRefusedError")
    assert result.stderr.count("\n") == 1 and result.stdout == ""
    assert not os.path.exists("s")


def test_remote_controller_commands_close_their_connections(workspace, capsys):
    (workspace / "fw1.bin").write_bytes(b"\x01" * 200)
    (workspace / "fw2.bin").write_bytes(b"\x02" * 300)
    _, out = run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    oem_public = out.strip().rsplit(" ", 1)[-1]
    for version in (1, 2):
        run(
            capsys, "oem", "issue", "--key", "oem.key", "--artifact", f"fw{version}.bin",
            "--new-version", str(version), "--model", "5", "--out", f"fw{version}.env",
        )
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    run(capsys, "repo", "publish", "--dir", "repo", "--name", "fw2", "--envelope", "fw2.env")
    attestation_key = "ab" * 32
    run(
        capsys, "device", "init", "--flash", "dev.flash", "--model", "5", "--id", "9",
        "--oem-public", oem_public, "--attestation-key", attestation_key, "--envelope", "fw1.env",
    )
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    servers = [
        subprocess.Popen([sys.executable, "-m", "assured", *argv], stdout=subprocess.PIPE, text=True, env=env)
        for argv in (["repo", "serve", "--dir", "repo"], ["device", "run", "--flash", "dev.flash"])
    ]
    try:
        repo_address, device_address = (server.stdout.readline().split()[-1] for server in servers)

        def remote(*argv) -> str:
            # -X dev reports a socket left unclosed as a ResourceWarning on stderr
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "assured", "controller", *argv, "--state", "ctrl.bin"],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert result.returncode == 0 and result.stderr == "", result.stderr
            return result.stdout

        assert "trust anchor" in remote("init", "--repo", repo_address)
        code, _ = run(
            capsys, "controller", "enroll", "--state", "ctrl.bin", "--device", "9", "--model", "5",
            "--attestation-key", attestation_key, "--version", "1",
            "--digest", hashlib.sha256(b"\x01" * 200).hexdigest(),
        )
        assert code == 0
        assert "1 new envelope" in remote("sync", "--repo", repo_address)
        assert "installed" in remote(
            "deliver", "--repo", repo_address, "--device", "9", "--name", "fw2", "--device-addr", device_address
        )
        assert "attestation verified" in remote("attest", "--device", "9", "--device-addr", device_address)
    finally:
        for server in servers:
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()


# --- the error model: one usage error or one error line, never a traceback -------------

KEY = "ab" * 32  # a well-formed 32-byte hex option


@pytest.mark.parametrize(
    "argv, option",
    [
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", "1", "--attestation-key", "zz"],
         "--attestation-key"),
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", "1", "--attestation-key", KEY,
          "--digest", "zz"], "--digest"),
        (["controller", "attest", "--state", "s", "--device", "1", "--expected", "zz"], "--expected"),
        (["controller", "init", "--state", "s", "--repo", "repo", "--window", "a:b"], "--window"),
        (["controller", "init", "--state", "s", "--repo", "repo", "--window", "9:1"], "--window"),
        (["controller", "init", "--state", "s", "--repo", "repo", "--window=-1:4"], "--window"),
        (["controller", "init", "--state", "s", "--repo", "repo", "--models", "x"], "--models"),
        (["controller", "init", "--state", "s", "--repo", "repo", "--models", f"1,{2**64}"], "--models"),
        (["device", "init", "--flash", "f", "--model", "1", "--id", "1", "--oem-public", "zz"], "--oem-public"),
        (["device", "init", "--flash", "f", "--model", "1", "--id", "1", "--oem-public", KEY,
          "--attestation-key", "zz"], "--attestation-key"),
        (["device", "run", "--oem-public", "zz"], "--oem-public"),
        (["device", "run", "--attestation-key", "zz"], "--attestation-key"),
        # hex of another length than 32 bytes
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", "1", "--attestation-key", "ab"],
         "--attestation-key"),
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", "1", "--attestation-key", KEY,
          "--digest", KEY + "00"], "--digest"),
        (["controller", "attest", "--state", "s", "--device", "1", "--expected", ""], "--expected"),
        (["device", "init", "--flash", "f", "--model", "1", "--id", "1", "--oem-public", "ab"], "--oem-public"),
        (["device", "run", "--attestation-key", KEY[:-2]], "--attestation-key"),
        # integers stored as a u64
        (["controller", "enroll", "--state", "s", "--device", "-1", "--model", "1", "--attestation-key", KEY],
         "--device"),
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", str(2**64), "--attestation-key", KEY],
         "--model"),
        (["controller", "enroll", "--state", "s", "--device", "1", "--model", "1", "--attestation-key", KEY,
          "--version", "-1"], "--version"),
        (["controller", "deliver", "--state", "s", "--repo", "repo", "--device", "x", "--name", "fw"], "--device"),
        (["device", "init", "--flash", "f", "--model", "-1", "--id", "1", "--oem-public", KEY], "--model"),
        (["device", "init", "--flash", "f", "--model", "1", "--id", str(2**64), "--oem-public", KEY], "--id"),
        (["device", "run", "--model", "-1"], "--model"),
        (["device", "run", "--id", str(2**64)], "--id"),
        (["oem", "issue", "--key", "k", "--artifact", "a", "--new-version", str(2**64), "--out", "o"],
         "--new-version"),
    ],
    ids=["enroll-key", "enroll-digest", "attest-expected", "window-text", "window-inverted", "window-negative",
         "models-text", "models-above-u64", "device-init-oem", "device-init-key", "device-run-oem", "device-run-key",
         "enroll-key-1-byte", "enroll-digest-33-bytes", "attest-expected-empty", "device-init-oem-1-byte",
         "device-run-key-31-bytes", "enroll-device-negative", "enroll-model-above-u64", "enroll-version-negative",
         "deliver-device-text", "device-init-model-negative", "device-init-id-above-u64", "device-run-model-negative",
         "device-run-id-above-u64", "issue-version-above-u64"],
)
def test_a_malformed_option_is_a_usage_error(workspace, capsys, argv, option):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert f"error: argument {option}: invalid" in err
    assert "Traceback" not in err
    assert os.listdir(workspace) == []


def _fleet(workspace, capsys, *published: int) -> None:
    """An OEM key, a repository holding fw<v> for each published version, a
    device at fw1 and a controller enrolling it, all in ``workspace``."""
    _, out = run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    oem_public = out.strip().rsplit(" ", 1)[-1]
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    for version in (1, *published):
        (workspace / f"fw{version}.bin").write_bytes(bytes([version]) * 100)
        code, out = run(
            capsys, "oem", "issue", "--key", "oem.key", "--artifact", f"fw{version}.bin",
            "--new-version", str(version), "--model", "5", "--out", f"fw{version}.env",
        )
        assert code == 0, out
    for version in published:
        run(capsys, "repo", "publish", "--dir", "repo", "--name", f"fw{version}", "--envelope", f"fw{version}.env")
    attestation_key = "ab" * 32
    run(
        capsys, "device", "init", "--flash", "dev.flash", "--model", "5", "--id", "9",
        "--oem-public", oem_public, "--attestation-key", attestation_key, "--envelope", "fw1.env", "--seed", "3",
    )
    run(capsys, "controller", "init", "--state", "ctrl.bin", "--repo", "repo", "--seed", "4")
    code, out = run(
        capsys, "controller", "enroll", "--state", "ctrl.bin", "--device", "9", "--model", "5",
        "--attestation-key", attestation_key, "--version", "1",
        "--digest", hashlib.sha256(bytes([1]) * 100).hexdigest(),
    )
    assert code == 0, out


def _one_error_line(out: str, error: str) -> None:
    assert out.startswith(f"error: {error}: ") and out.count("\n") == 1, out
    assert "Traceback" not in out


@pytest.mark.parametrize(
    "versions", [["--new-version", "0"], ["--new-version", "3", "--prev", "5"]], ids=["version-0", "prev-above"]
)
def test_oem_issue_rejects_invalid_constraints(workspace, capsys, versions):
    run(capsys, "oem", "keygen", "--out", "oem.key", "--seed", "1")
    (workspace / "fw.bin").write_bytes(b"\x01" * 10)
    code, out = run(capsys, "oem", "issue", "--key", "oem.key", "--artifact", "fw.bin", *versions, "--out", "fw.env")
    assert code == 1
    _one_error_line(out, "InvalidConstraints")
    assert not os.path.exists("fw.env")


@pytest.mark.parametrize(
    "script",
    ["enroll d model=x id=1\n", "frobnicate d\n", "enroll d model=1 id=1\nboot nobody\n", "enroll 'd model=1 id=1\n"],
    ids=["bad-integer", "unknown-step", "unknown-device", "unclosed-quote"],
)
def test_a_bad_scenario_script_is_one_error_line(workspace, capsys, script):
    (workspace / "s.scn").write_text(script)
    code, out = run(capsys, "scenario", "run", "s.scn")
    assert code == 1
    _one_error_line(out, "ScenarioError")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["scenario", "run", "adir"], "ParseError"),
        (["scenario", "run", "latin1.scn"], "ParseError"),
        (["controller", "sync", "--state", "adir", "--repo", "repo"], "ParseError"),
        (["token", "dump", "adir"], "ParseError"),
        (["scenario", "run", "happy-path", "--out", "missing/t.txt"], "WriteFailed"),
        (["bench", "--mode", "assured", "--records", "missing/b.jsonl"], "WriteFailed"),
        (["oem", "keygen", "--out", "missing/oem.key"], "WriteFailed"),
        (["controller", "init", "--state", "ctrl.bin", "--repo", "repo"], "ParseError"),
        (["repo", "init", "--dir", "latin1.scn"], "WriteFailed"),
    ],
    ids=["scenario-directory", "scenario-not-utf8", "state-directory", "token-dump-directory", "scenario-out",
         "bench-records", "keygen-out", "envelopes-a-file", "repo-dir-a-file"],
)
def test_a_file_that_cannot_be_read_or_written_is_one_error_line(workspace, capsys, argv, error):
    (workspace / "adir").mkdir()
    (workspace / "latin1.scn").write_bytes("# café\nenroll d model=1 id=1\n".encode("latin-1"))
    run(capsys, "repo", "init", "--dir", "repo", "--seed", "2")
    (workspace / "repo" / "envelopes").rmdir()
    (workspace / "repo" / "envelopes").write_bytes(b"")
    code, out = run(capsys, *argv)
    assert code == 1
    _one_error_line(out.splitlines(keepends=True)[-1], error)  # bench prints its tables before it writes
    assert sorted(os.listdir(workspace)) == ["adir", "latin1.scn", "repo"]


def test_controller_sync_reports_a_dropped_envelope_as_one_error_line(workspace, capsys):
    _fleet(workspace, capsys, 2)
    os.remove(workspace / "repo" / "envelopes" / "fw2.env")
    before = (workspace / "ctrl.bin").read_bytes()
    code, out = run(capsys, "controller", "sync", "--state", "ctrl.bin", "--repo", "repo")
    assert code == 1
    _one_error_line(out, "NotFound")
    assert (workspace / "ctrl.bin").read_bytes() == before


def test_controller_deliver_reports_an_unknown_name_as_one_error_line(workspace, capsys):
    _fleet(workspace, capsys, 2)
    code, out = run(
        capsys, "controller", "deliver", "--state", "ctrl.bin", "--repo", "repo",
        "--device", "9", "--name", "nope", "--flash", "dev.flash",
    )
    assert code == 1
    _one_error_line(out, "NotFound")


def test_seeded_deliveries_draw_different_controller_nonces(workspace, capsys, monkeypatch):
    """Two runs with one --seed must not key two channels alike: the
    controller reseeds from the count of nonces it has drawn."""
    _fleet(workspace, capsys, 2, 3)
    nonces = []
    hello = LocalDevicePort.hello
    monkeypatch.setattr(LocalDevicePort, "hello", lambda port, nonce: nonces.append(nonce) or hello(port, nonce))
    for name in ("fw2", "fw3"):
        code, out = run(
            capsys, "controller", "deliver", "--state", "ctrl.bin", "--repo", "repo",
            "--device", "9", "--name", name, "--flash", "dev.flash", "--seed", "5",
        )
        assert code == 0 and "installed" in out, out
    assert len(nonces) == 2 and nonces[0] != nonces[1]
    assert load_controller("ctrl.bin").nonces_drawn == 2


def test_fingerprint_script_prints_the_same_digests_twice(tmp_path):
    """scripts/fingerprint.py is what every byte-identity claim rests on: it
    exits 0, prints the five group digests and the overall one, and two runs
    print the same overall digest."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "fingerprint.py")
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    overall = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        lines = [line.split() for line in result.stdout.splitlines()]
        assert [line[0] for line in lines] == ["transcripts", "bench", "repository", "state", "cli", "overall"]
        assert all(len(line) == 2 and len(line[1]) == 64 for line in lines)
        overall.append(lines[-1][1])
    assert overall[0] == overall[1]
    assert not os.listdir(tmp_path)
