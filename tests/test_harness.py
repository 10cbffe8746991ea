"""Scenario DSL, builtin scenarios, determinism, adversary suite, bench."""

import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import assured.device
from assured.device import Device, InstallOutcome
from assured.errors import AssuredError, InvalidConstraints
from assured.harness import (
    ATTACKS,
    BUILTIN_SCENARIOS,
    DROP_UPDATE,
    HAPPY_PATH,
    ROLLBACK,
    ScenarioError,
    Step,
    World,
    adversary_table,
    derived_seed,
    parse_scenario,
    run_adversary_suite,
    run_bench,
    run_scenario,
)


class TestParsing:
    def test_happy_path_parses(self):
        steps = parse_scenario(HAPPY_PATH)
        assert [s.op for s in steps] == ["enroll", "issue", "publish", "sync", "deliver", "attest", "boot"]
        assert steps[2].expected == "ok"
        assert steps[0].kwargs == {"model": "100", "id": "1", "version": "1"}

    def test_comments_and_blanks_skipped(self):
        steps = parse_scenario("# comment\n\nsync -> ok:0\n")
        assert len(steps) == 1

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("# only a comment\n")

    @pytest.mark.parametrize(
        "line, message",
        [("enroll 'dev1 model=1 id=1", "No closing quotation"), ("issue fw2 version=2 version=3", "repeated key")],
    )
    def test_a_line_it_cannot_split_into_one_step_is_a_scenario_error(self, line, message):
        with pytest.raises(ScenarioError, match=message) as excinfo:
            parse_scenario("# set-up\nsync\n" + line + "\n")
        assert excinfo.value.index == 2

    @given(st.text(st.sampled_from("ab=#->'\"\\ \t\n") | st.characters()))
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_steps_or_a_scenario_error(self, text):
        try:
            steps = parse_scenario(text)
        except ScenarioError:
            return
        assert steps and all(isinstance(step, Step) for step in steps)


class TestBuiltins:
    @pytest.mark.parametrize("name,text", sorted(BUILTIN_SCENARIOS.items()))
    def test_all_builtins_pass(self, name, text):
        transcript = run_scenario(text, seed=11)
        assert transcript.ok, transcript.text()

    def test_happy_path_stages(self):
        transcript = run_scenario(HAPPY_PATH, seed=11)
        text = transcript.text()
        assert "installed:2" in text
        assert "verified" in text
        assert "verify_delta=6" in text  # controller metadata verification
        assert "device_verify_delta=1" in text  # device token verification

    def test_drop_update_detected_by_missing_response(self):
        transcript = run_scenario(DROP_UPDATE, seed=11)
        assert transcript.ok, transcript.text()
        assert "failed:missing" in transcript.text()

    def test_rollback_rejected_on_device(self):
        transcript = run_scenario(ROLLBACK, seed=11)
        assert transcript.ok, transcript.text()
        assert "rejected:version_not_monotonic" in transcript.text()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = run_scenario(HAPPY_PATH, seed=3)
        b = run_scenario(HAPPY_PATH, seed=3)
        assert a.text() == b.text()

    def test_different_seeds_differ(self):
        a = run_scenario(HAPPY_PATH, seed=3)
        b = run_scenario(HAPPY_PATH, seed=4)
        assert a.text() != b.text()  # nonces and digests move with the seed


class TestScenarioSemantics:
    def test_stale_metadata_scenario(self):
        text = """
        enroll dev1 model=100 id=1 version=1
        issue fw2 version=2 model=100
        publish fw2 -> ok
        sync -> ok:1
        tamper-policy stale
        sync -> error:VersionRollback
        """
        assert run_scenario(text, seed=5).ok

    def test_expired_then_refreshed(self):
        text = """
        enroll dev1 model=100 id=1 version=1
        issue fw2 version=2 model=100
        publish fw2 -> ok
        clock-advance 11
        sync -> error:Expired
        refresh
        sync -> ok:1
        """
        assert run_scenario(text, seed=5).ok

    def test_frame_tamper_scenario(self):
        text = """
        enroll dev1 model=100 id=1 version=1
        issue fw2 version=2 model=100
        publish fw2 -> ok
        sync -> ok:1
        frame-tamper bit=123
        deliver dev1 fw2 -> delivery-failed:auth_failure
        deliver dev1 fw2 -> installed:2
        """
        assert run_scenario(text, seed=5).ok

    def test_corrupt_and_fallback_boot(self):
        text = """
        enroll dev1 model=100 id=1 version=1
        issue fw2 version=2 model=100
        publish fw2 -> ok
        sync -> ok:1
        deliver dev1 fw2 -> installed:2
        corrupt-flash dev1 bank=active bit=44
        boot dev1 -> running:1
        attest dev1 -> failed:wrong_measurement
        """
        assert run_scenario(text, seed=5).ok

    def test_forged_token_scenario(self):
        text = """
        enroll dev1 model=100 id=1 version=1
        issue fw2 version=2 model=100 key=rogue
        publish fw2 -> ok
        sync -> ok:1
        deliver dev1 fw2 -> rejected:bad_signature
        """
        assert run_scenario(text, seed=5).ok

    def test_unknown_step_aborts_with_index(self):
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario("enroll dev1 model=1 id=1\nfrobnicate dev1\n", seed=5)
        assert excinfo.value.index == 2

    def test_reference_to_unknown_entity_aborts(self):
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario("enroll dev1 model=1 id=1\ndeliver dev9 fw1\n", seed=5)
        assert excinfo.value.index == 2

    def test_failed_expectation_marks_transcript(self):
        text = "enroll dev1 model=1 id=1\nissue fw2 version=2\npublish fw2 -> rejected\n"
        transcript = run_scenario(text, seed=5)
        assert not transcript.ok
        assert "FAIL" in transcript.text()


class TestAdversarySuite:
    def test_no_undetected_rows(self):
        rows = run_adversary_suite(seed=2)
        assert len(rows) == 11
        assert all(row.detected for row in rows), adversary_table(rows)

    def test_table_renders(self):
        rows = run_adversary_suite(seed=2)
        table = adversary_table(rows)
        assert "forged token" in table

    def test_a_row_is_its_scripts_transcript(self):
        rows = run_adversary_suite(seed=2)
        assert [row.attack for row in rows] == [attack for _, attack, _, _ in ATTACKS]
        for row, (label, _, layer, script) in zip(rows, ATTACKS):
            transcript = run_scenario(script, seed=derived_seed(2, f"adversary:{label}"))
            assert row.layer == layer
            assert row.detail == transcript.text()
            assert row.detected == transcript.ok

    @pytest.mark.parametrize("label, script", [(label, script) for label, _, _, script in ATTACKS])
    def test_each_attack_passes_multiprocess_with_the_in_process_transcript(self, label, script):
        seed = derived_seed(2, f"adversary:{label}")
        local = run_scenario(script, seed=seed)
        remote = run_scenario(script, seed=seed, multiprocess=True)
        assert local.ok, local.text()
        assert remote.text() == local.text()

    def test_each_attack_is_a_builtin_scenario(self):
        for label, _, _, script in ATTACKS:
            assert BUILTIN_SCENARIOS[label] == script

    def test_switching_off_the_constraint_check_misses_exactly_its_attacks(self, monkeypatch):
        monkeypatch.setattr(assured.device, "evaluate_constraints", lambda *args, **kwargs: None)
        missed = {row.attack for row in run_adversary_suite(seed=2) if not row.detected}
        assert missed == {"wrong-device envelope", "version rollback (re-deliver old version)"}


class TestBench:
    def test_assured_numbers(self):
        report = run_bench("assured", seed=6)
        assert report.device_verify_count == 1
        assert report.explicit_auth_bytes == 136
        assert report.implicit_auth_bytes == 52
        assert report.device_metadata_bytes == 188
        assert report.envelope_overhead_bytes == 148
        assert report.frame_overhead_bytes == 44

    def test_tuf_numbers(self):
        report = run_bench("tuf", seed=6)
        assert report.device_verify_count == 6
        assert 840 <= report.device_metadata_bytes <= 1040

    def test_records_are_flat(self):
        report = run_bench("assured", seed=6)
        for record in report.records():
            assert set(record) == {"mode", "metric", "value"}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_bench("warp", seed=6)

    @pytest.mark.parametrize(
        "mode, method",
        [("assured", "_install_from_bytes"), ("tuf", "receive_update_tuf")],
    )
    def test_failed_install_raises_instead_of_reporting(self, monkeypatch, mode, method):
        """A bench whose update does not install reports no numbers, also
        under ``python -O``, which would strip an ``assert``."""
        rejected = InstallOutcome(InstallOutcome.REJECTED, reason="forced")
        monkeypatch.setattr(Device, method, lambda self, *args, **kwargs: rejected)
        with pytest.raises(AssuredError, match="did not install"):
            run_bench(mode, seed=6)

    @pytest.mark.parametrize("mode", ["assured", "tuf"])
    def test_every_recorded_count_is_printed_with_its_label(self, mode):
        import assured.harness as harness

        report = run_bench(mode, seed=6)
        labels = dict(harness._COUNTS)
        counts = [(r["metric"], r["value"]) for r in report.records() if not r["metric"].startswith("role_size:")]
        assert [metric for metric, _ in counts] == [metric for metric in labels if getattr(report, metric) is not None]
        printed = {line.split(" : ")[0].strip(): line.split(" : ")[1] for line in report.to_text().splitlines()
                   if " : " in line}
        assert printed == {labels[metric]: str(value) for metric, value in counts}
        assert "(modeled)" in labels["implicit_auth_bytes"]


class TestFixedBinaryRepository:
    def test_happy_path_in_binary_mode(self):
        from assured.metadata import Mode

        with World(seed=9, mode=Mode.FIXED_BINARY) as world:
            world.enroll("dev", device_model=100, device_id=1, version=1)
            world.issue("fw2", version=2, device_model=100)
            world.publish("fw2")
            outcome, detail = world.sync()
            assert outcome == "ok:1" and "verify_delta=6" in detail
            outcome, _ = world.deliver("dev", "fw2")
            assert outcome == "installed:2"
            assert world.attest("dev")[0] == "verified"


class TestWorldDirect:
    def test_suppressed_install_detected_via_attestation(self):
        with World(seed=8) as world:
            world.enroll("dev", device_model=100, device_id=1, version=1)
            world.issue("fw2", version=2, device_model=100)
            world.publish("fw2")
            world.sync()
            world.devices["dev"].port.set_suppress_install(True)
            outcome, _ = world.deliver("dev", "fw2")
            assert outcome == "installed:2"  # the device lied
            attest_outcome, _ = world.attest("dev")
            assert attest_outcome == "failed:wrong_measurement"

    def test_attestation_nonces_unique_across_run(self):
        with World(seed=8) as world:
            world.enroll("dev", device_model=100, device_id=1, version=1)
            for _ in range(25):
                world.attest("dev")
            log = world.controller.nonce_log
            assert len(log) == len(set(log))


SCENARIO_FILES = sorted((Path(__file__).parent.parent / "scenarios").glob("*.scn"))


class TestScenarioFiles:
    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.name)
    def test_file_passes_with_identical_transcripts_in_both_modes(self, path):
        text = path.read_text(encoding="utf-8")
        local = run_scenario(text, seed=7)
        assert local.ok, local.text()
        assert run_scenario(text, seed=7, multiprocess=True).text() == local.text()

    def test_a_file_named_after_a_builtin_holds_its_text(self):
        named = {path.stem.replace("_", "-"): path for path in SCENARIO_FILES}
        shared = sorted(set(named) & set(BUILTIN_SCENARIOS))
        assert shared == ["drop-update", "happy-path", "rollback", "stale-metadata"]
        for name in shared:
            assert named[name].read_text(encoding="utf-8") == BUILTIN_SCENARIOS[name], name


class TestArmedAdversary:
    SETUP = "enroll dev1 model=100 id=1 version=1\nissue fw2 version=2 model=100\npublish fw2\nsync -> ok:1\n"

    @pytest.mark.parametrize(
        "steps",
        [
            # an attestation consumes the armed drop, so the delivery goes through
            "drop\nattest dev1 -> failed:missing\ndeliver dev1 fw2 -> installed:2\n",
            # a delivery consumes the armed tag forgery, so the attestation verifies
            "forge-tag\ndeliver dev1 fw2 -> installed:2\nattest dev1 -> verified\n",
            # a later adversary replaces the armed one, and the next delivery disarms it
            "replay\ndrop\ndeliver dev1 fw2 -> delivery-failed:missing\ndeliver dev1 fw2 -> installed:2\n",
        ],
    )
    def test_one_slot_the_next_deliver_or_attest_consumes(self, steps):
        transcript = run_scenario(self.SETUP + steps, seed=5)
        assert transcript.ok, transcript.text()


class TestStepTable:
    SETUP = TestArmedAdversary.SETUP  # four steps; the step under test is step 5

    def test_table_covers_the_documented_vocabulary(self):
        import assured.harness as harness

        block = harness.__doc__.split("Step vocabulary:")[1]
        documented = {line.split()[0] for line in block.splitlines() if line.strip()}
        assert documented == set(harness._STEPS)
        for method, _ in harness._STEPS.values():
            assert callable(getattr(World, method))

    def test_each_documented_step_is_its_methods_signature(self):
        import assured.harness as harness

        block = harness.__doc__.split("Step vocabulary:")[1]
        for line in filter(str.strip, block.splitlines()):
            op, *tokens = line.split()
            method, spelled = harness._STEPS[op]
            parameters = list(inspect.signature(getattr(World, method), eval_str=True).parameters.values())[1:]
            assert {p.kind for p in parameters} <= {inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.KEYWORD_ONLY}
            assert {p.annotation for p in parameters} <= {int, str}
            positional = [token for token in tokens if token.startswith("<")]
            assert len(positional) == sum(p.kind is p.POSITIONAL_ONLY for p in parameters), line
            # each documented key and whether it is optional ([key=...])
            keys = {token.strip("[]").split("=")[0]: token.startswith("[") for token in tokens if "=" in token}
            assert keys == {
                spelled.get(p.name, p.name): p.default is not p.empty for p in parameters if p.kind is p.KEYWORD_ONLY
            }, line
            assert set(spelled) <= {p.name for p in parameters}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("issue fw3 verison=3 version=3 modle=7", "unknown key 'verison'"),
            ("enroll dev2 device_model=100 id=2", "unknown key 'device_model'"),
            ("issue fw3 model=100", "missing key 'version'"),
            ("deliver dev1 fw2 extra", "3 positional arguments where 'deliver' takes 2"),
            ("sync now", "1 positional arguments where 'sync' takes 0"),
            ("publish", "0 positional arguments where 'publish' takes 1"),
        ],
        ids=["unknown-key", "parameter-name-as-key", "missing-key", "extra-positional", "positional-to-none",
             "missing-positional"],
    )
    def test_a_step_refuses_what_its_method_does_not_declare(self, line, message):
        with pytest.raises(ScenarioError, match=message) as excinfo:
            run_scenario(self.SETUP + line + "\n", seed=5)
        assert excinfo.value.index == 5

    @pytest.mark.parametrize("multiprocess", [False, True])
    @pytest.mark.parametrize("bank", ["-1", "2"])
    def test_corrupt_flash_takes_only_its_documented_banks(self, multiprocess, bank):
        script = f"enroll dev1 model=1 id=1\ncorrupt-flash dev1 bank={bank}\n"
        with pytest.raises(ScenarioError, match="bank is not active, inactive, 0 or 1") as excinfo:
            run_scenario(script, seed=5, multiprocess=multiprocess)
        assert excinfo.value.index == 2

    def test_corrupt_flash_names_a_bank_by_number_or_by_role(self):
        banks = ["0", "1", "active", "inactive"]
        script = "enroll dev1 model=1 id=1\n" + "".join(f"corrupt-flash dev1 bank={bank}\n" for bank in banks)
        lines = run_scenario(script, seed=5).lines[1:]
        assert [line.split(" | ")[-1] for line in lines] == [f"bank={index} bit=0" for index in (0, 1, 0, 1)]

    @pytest.mark.parametrize("multiprocess", [False, True], ids=["in-process", "multi-process"])
    @pytest.mark.parametrize(
        "options, message",
        [("key=0em", "key is not oem or rogue: '0em'"), ("size=4194305", "size is not within 0..4194304: 4194305"),
         ("size=-1", "size is not within 0..4194304: -1")],
        ids=["key-typo", "size-over-4-mib", "size-negative"],
    )
    def test_issue_refuses_a_key_or_size_it_does_not_take(self, multiprocess, options, message):
        script = f"enroll dev1 model=100 id=1\nissue fw2 version=2 model=100 {options}\n"
        with pytest.raises(ScenarioError, match=message) as excinfo:
            run_scenario(script, seed=5, multiprocess=multiprocess)
        assert excinfo.value.index == 2

    def test_a_4_mib_artifact_delivers_with_identical_transcripts_in_both_modes(self):
        script = """\
enroll dev1 model=100 id=1 version=1
issue big version=2 model=100 size=4194304
publish big -> ok
sync -> ok:1
deliver dev1 big -> installed:2
boot dev1 -> running:2
"""
        local = run_scenario(script, seed=5)
        assert local.ok, local.text()
        assert run_scenario(script, seed=5, multiprocess=True).text() == local.text()

    @pytest.mark.parametrize("multiprocess", [False, True], ids=["in-process", "multi-process"])
    @pytest.mark.parametrize(
        "options, message",
        [("model=-1 id=1", "device_model out of u64 range: -1"), ("model=1 id=-1", "device_id out of u64 range: -1"),
         ("model=1 id=18446744073709551616", "device_id out of u64 range: 18446744073709551616")],
        ids=["model-negative", "id-negative", "id-over-u64"],
    )
    def test_enroll_refuses_bad_constraints_before_a_device_exists(self, multiprocess, options, message):
        with pytest.raises(InvalidConstraints, match=message):
            run_scenario(f"enroll dev1 {options}\n", seed=5, multiprocess=multiprocess)
        with World(seed=5, multiprocess=multiprocess) as world:
            spawned = list(world._processes)
            model, device_id = (int(option.split("=")[1]) for option in options.split())
            with pytest.raises(InvalidConstraints):
                world.enroll("dev1", device_model=model, device_id=device_id)
            assert world._processes == spawned and world.devices == {}

    @pytest.mark.parametrize("multiprocess", [False, True], ids=["in-process", "multi-process"])
    @pytest.mark.parametrize(
        "second, message",
        [("dev1 model=1 id=2", "device 'dev1' is already enrolled"),
         ("dev2 model=2 id=1", "device id 1 is already enrolled")],
        ids=["same-handle", "same-id"],
    )
    def test_enroll_refuses_a_handle_or_id_already_enrolled(self, multiprocess, second, message):
        with pytest.raises(ScenarioError, match=message) as excinfo:
            run_scenario(f"enroll dev1 model=1 id=1\nenroll {second}\n", seed=5, multiprocess=multiprocess)
        assert excinfo.value.index == 2
        with World(seed=5, multiprocess=multiprocess) as world:
            world.enroll("dev1", device_model=1, device_id=1)
            spawned, first = list(world._processes), world.devices["dev1"]
            registry = dict(world.controller.registry)
            handle, model, device_id = (part.split("=")[-1] for part in second.split())
            with pytest.raises(ValueError, match=message):
                world.enroll(handle, device_model=int(model), device_id=int(device_id))
            assert world._processes == spawned and world.devices == {"dev1": first}
            assert world.controller.registry == registry

    @pytest.mark.parametrize("multiprocess", [False, True])
    def test_unknown_install_mode_aborts_in_both_modes(self, multiprocess):
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario("enroll dev1 model=1 id=1 mode=triple\n", seed=5, multiprocess=multiprocess)
        assert excinfo.value.index == 1
