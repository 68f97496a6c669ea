import hashlib

import pytest

from rankgate.codec import from_dict
from rankgate.experiment import ConditionSpec, ExperimentPlan, plan_from_dict, plan_hash
from rankgate.mlp import MlpConfig, init_model, save_model
from rankgate.synth import SynthConfig


class TestFromDict:
    def test_casts_by_the_default_type(self):
        plan = plan_from_dict(
            {
                "groups": ["g"],
                "conditions": [{"tag": "c", "probe_noise_sigma": 0}],
                "store_path": "s.bin",
                "target_fpir": 1,
                "seeds": [2, 3],
            }
        )
        assert plan.target_fpir == 1.0 and isinstance(plan.target_fpir, float)
        assert plan.seeds == (2, 3)
        cond = plan.conditions[0]
        assert cond.probe_noise_sigma == 0.0 and isinstance(cond.probe_noise_sigma, float)
        assert plan_hash(plan) == plan_hash(
            ExperimentPlan(
                groups=("g",),
                conditions=(ConditionSpec("c", 0.0),),
                store_path="s.bin",
                target_fpir=1.0,
                seeds=(2, 3),
            )
        )

    def test_unknown_key_or_wrong_value_type_rejected(self):
        base = {"n_identities": 2, "images_per_identity": 3}
        with pytest.raises(ValueError, match="^synth config: unknown field 'seed'"):
            from_dict(SynthConfig, {**base, "seed": 1}, "synth config")
        with pytest.raises(ValueError, match="^synth config: "):
            from_dict(SynthConfig, {**base, "groups": 5}, "synth config")

    def test_json_types_are_strict(self):
        plan = {"groups": ["g"], "conditions": [{"tag": "c"}], "store_path": "s.bin"}
        bad = {
            "groups": "ga",
            "seeds": "12",
            "mlp_hidden": "16",
            "reuse_first_condition_threshold": "false",
            "d_in": True,
            "mlp_epochs": 3.0,
            "target_fpir": "0.1",
            "input_scaling": 1,
            "store_path": 5,
            "methods": ["mlp", 1],
        }
        for key, value in bad.items():
            with pytest.raises(ValueError, match=f"^plan: field {key} "):
                plan_from_dict({**plan, key: value})
        base = {"n_identities": 3, "images_per_identity": 3}
        for groups in ([["a"]], [["a", "3"]], {"a": 3}):
            with pytest.raises(ValueError, match="^synth config: field groups "):
                from_dict(SynthConfig, {**base, "groups": groups}, "synth config")
        synth = from_dict(SynthConfig, {**base, "groups": [["a", 3]]}, "synth config")
        assert synth.groups == (("a", 3),)

    def test_int_past_float_range_rejected(self):
        plan = {"groups": ["g"], "conditions": [{"tag": "c"}], "store_path": "s.bin"}
        message = "plan: field test_fraction must be float, got an int too large for a float"
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_from_dict({**plan, "test_fraction": 10**400})

    def test_errors_name_the_item_and_nested_field(self):
        plan = {"groups": ["g"], "conditions": [{"tag": "c"}], "store_path": "s.bin"}
        cases = (
            ({"seeds": [0, "1"]}, "field seeds item 1 must be int, got str"),
            ({"conditions": [{"tag": "c"}, {"tag": 2}]},
             "field conditions item 1 field tag must be str, got int"),
            ({"conditions": [{"probe_noise_sigma": 0.1}]},
             "field conditions item 0 missing required field 'tag'"),
            ({"conditions": [{"tag": ""}]},
             "field conditions item 0 condition tag must be non-empty"),
        )
        for change, message in cases:
            with pytest.raises(ValueError) as caught:
                plan_from_dict({**plan, **change})
            assert str(caught.value) == f"plan: {message}"
        base = {"n_identities": 3, "images_per_identity": 3}
        with pytest.raises(ValueError) as caught:
            from_dict(SynthConfig, {**base, "groups": [["a", 3], ["b", "3"]]}, "synth config")
        assert str(caught.value) == "synth config: field groups item 1 item 1 must be int, got str"

    def test_built_record_passes_through(self):
        condition = ConditionSpec("c", 0.1)
        plan = from_dict(ExperimentPlan, {"groups": ["g"], "conditions": [condition],
                                          "store_path": "s.bin"}, "plan")
        assert plan.conditions[0] is condition


class TestGolden:
    """Serialized bytes pinned as literals; a serializer change must not move them."""

    def test_plan_hash_and_model_bytes(self, tmp_path):
        plan = ExperimentPlan(
            groups=("a", "b"),
            conditions=(ConditionSpec("clean"), ConditionSpec("noisy", 0.1)),
            seeds=(0, 1),
            synth=SynthConfig(
                n_identities=30,
                images_per_identity=6,
                dimension=16,
                groups=(("a", 10), ("b", 20)),
                degradation_levels=(("n", 0.1),),
                rng_seed=4,
            ),
        )
        assert plan_hash(plan) == (
            "fcd76ceccb568a3972286562ac4cd42510a165a0181f68d1493410aa1b0509a9"
        )
        path = tmp_path / "model.bin"
        save_model(init_model(MlpConfig(hidden_sizes=(5, 3), rng_seed=9)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f5f25af2fe85d094020f55f1a41b6e1c64dca426a2c70534d9bf662d03d195c4"
        )
