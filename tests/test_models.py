import json
import re

import numpy as np
import pytest

from effectcompat.cli import main as cli_main
from effectcompat.compat import compute_lambda0, is_compatible, random_effect
from effectcompat.core import (
    Effect,
    EffectRangeError,
    RepresentabilityError,
    effect_from_affine,
    effect_from_vertex_values,
    make_state_space,
)
from effectcompat.models import (
    ModelFormatError,
    gbit_square,
    hypercube,
    load_model,
    regular_polygon,
    save_model,
    simplex,
    zoo_model,
    zoo_names,
)


class TestSimplex:
    def test_segment(self):
        space = simplex(2)
        assert np.array_equal(space.vertices, [[0.0], [1.0]])

    def test_triangle(self):
        space = simplex(3)
        assert np.array_equal(space.vertices, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_single_point(self):
        space = simplex(1)
        assert space.dimension == 0
        assert space.n_vertices == 1
        # every effect on it is a constant
        eff = effect_from_vertex_values(space, [0.7])
        assert eff.vertex_values(space)[0] == pytest.approx(0.7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            simplex(0)


class TestGbitSquare:
    def test_vertices(self):
        space = gbit_square()
        assert np.array_equal(
            space.vertices, [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        )

    def test_sharp_effects_validate(self):
        space, effects = zoo_model("gbit")
        assert set(effects) >= {"e_x", "e_y", "u", "half"}
        assert np.allclose(effects["e_x"].vertex_values(space), [1, 1, 0, 0])
        assert np.allclose(effects["e_y"].vertex_values(space), [1, 0, 1, 0])

    def test_sharp_lambda0_is_two(self):
        space, effects = zoo_model("gbit")
        report = compute_lambda0(space, effects["e_x"], effects["e_y"])
        assert report.lambda0 == pytest.approx(2.0, abs=1e-9)


class TestHypercubeAndPolygon:
    def test_hypercube_2_matches_gbit_up_to_order(self):
        cube = {tuple(v) for v in hypercube(2).vertices.tolist()}
        square = {tuple(v) for v in gbit_square().vertices.tolist()}
        assert cube == square

    def test_hypercube_bounds(self):
        with pytest.raises(ValueError):
            hypercube(0)
        with pytest.raises(ValueError):
            hypercube(17)

    def test_polygon_vertex_count(self):
        assert regular_polygon(5).n_vertices == regular_polygon(np.int64(5)).n_vertices == 5
        with pytest.raises(ValueError):
            regular_polygon(2)

    def test_rotated_square_matches_gbit_lambda0(self):
        # polygon(4) is the gbit square rotated by pi/4 and shrunk; the
        # correspondingly transported sharp effects have the same lambda0.
        space = regular_polygon(4)
        e = effect_from_vertex_values(space, [1.0, 1.0, 0.0, 0.0])
        f = effect_from_vertex_values(space, [0.0, 1.0, 1.0, 0.0])
        report = compute_lambda0(space, e, f)
        assert report.lambda0 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("build, count, what", [
        (regular_polygon, 3.5, "polygon vertex count n"),
        (simplex, 2.5, "simplex vertex count n"),
        (hypercube, 2.0, "hypercube dimension d"),
    ], ids=["polygon", "simplex", "hypercube"])
    def test_a_float_count_is_named(self, build, count, what):
        with pytest.raises(TypeError, match=f"^{what} must be an integer, got {count}$"):
            build(count)

    def test_triangle_polygon_is_classical(self):
        space = regular_polygon(3)
        rng = np.random.default_rng(43)
        for _ in range(20):
            assert is_compatible(space, random_effect(space, rng), random_effect(space, rng))


class TestZoo:
    def test_names(self):
        names = zoo_names()
        for required in ("simplex-2", "simplex-3", "gbit", "hypercube-3", "polygon-5"):
            assert required in names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            zoo_model("borromean")

    def test_every_model_and_effect_validates(self):
        for name in zoo_names():
            space, effects = zoo_model(name)
            assert space.n_vertices >= 1
            # vertices pairwise distinct
            as_tuples = {tuple(v) for v in space.vertices.tolist()}
            assert len(as_tuples) == space.n_vertices
            for eff in effects.values():
                effect_from_affine(space, eff.coefficients)

    def test_affine_invariance_of_lambda0(self):
        # An invertible affine map x -> M x + shift of the vertices, with the
        # effects carried along, leaves lambda0 unchanged (ROADMAP item 9).
        def mapped_lambda0(space, e, f, M, shift):
            mapped = make_state_space(space.vertices @ M.T + shift, name="mapped")
            Minv = np.linalg.inv(M)

            def transport(eff):
                c = eff.coefficients
                linear = Minv.T @ c[1:]
                const = c[0] - linear @ shift
                return Effect(np.concatenate([[const], linear]))

            return compute_lambda0(mapped, transport(e), transport(f)).lambda0

        rng = np.random.default_rng(47)
        space, effects = zoo_model("gbit")
        e, f = effects["e_x"], effects["e_y"]
        base = compute_lambda0(space, e, f).lambda0
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            M = rot @ np.diag(rng.uniform(0.5, 2.0, 2))
            shift = rng.uniform(-1, 1, 2)
            assert mapped_lambda0(space, e, f, M, shift) == pytest.approx(base, abs=1e-9)

        # Seeded pairs, full-span and random-span alternating, on 5 to 16 vertices
        rng = np.random.default_rng(48)
        for space in (regular_polygon(5), regular_polygon(8), regular_polygon(16),
                      hypercube(3), hypercube(4)):
            d = space.dimension
            for n in range(8):
                span = (1.0, 1.0) if n % 2 else (0.2, 1.0)
                e, f = (random_effect(space, rng, span_range=span) for _ in range(2))
                M = np.linalg.qr(rng.normal(size=(d, d)))[0] @ np.diag(rng.uniform(0.5, 2.0, d))
                shift = rng.uniform(-1.0, 1.0, d)
                base = compute_lambda0(space, e, f).lambda0
                assert abs(mapped_lambda0(space, e, f, M, shift) - base) <= 1e-12, (space, n)


class TestModelFiles:
    def test_round_trip_is_exact(self, tmp_path):
        space, effects = zoo_model("gbit")
        path = tmp_path / "gbit.json"
        save_model(path, space, effects)
        loaded_space, loaded_effects = load_model(path)
        assert np.array_equal(loaded_space.vertices, space.vertices)
        assert loaded_space.name == space.name
        for key, eff in effects.items():
            assert np.array_equal(loaded_effects[key].coefficients, eff.coefficients)

    def test_round_trip_preserves_lambda0(self, tmp_path):
        space, effects = zoo_model("polygon-5")
        rng = np.random.default_rng(53)
        e = random_effect(space, rng)
        f = random_effect(space, rng)
        effects = dict(effects, e=e, f=f)
        before = compute_lambda0(space, e, f).lambda0
        path = tmp_path / "poly.json"
        save_model(path, space, effects)
        space2, effects2 = load_model(path)
        after = compute_lambda0(space2, effects2["e"], effects2["f"]).lambda0
        assert after == before

    def test_vertex_value_effects_load(self, tmp_path):
        doc = {
            "version": 1,
            "name": "triangle",
            "dimension": 2,
            "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "effects": {"a": {"values": [0.2, 0.9, 0.4]}},
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        space, effects = load_model(path)
        assert np.allclose(effects["a"].vertex_values(space), [0.2, 0.9, 0.4])

    def test_effect_out_of_range_rejected(self, tmp_path):
        doc = {
            "version": 1,
            "name": "seg",
            "dimension": 1,
            "vertices": [[0.0], [1.0]],
            "effects": {"bad": {"values": [0.2, 1.5]}},
        }
        path = tmp_path / "seg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(EffectRangeError):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("vertices", [[0.0], [float("nan")]], "vertex 1 is not finite"),
            ("effects", {"e": {"affine": [0.5, float("nan")]}}, r"value nan at vertex \[0.0\]"),
        ],
        ids=["vertex", "coefficient"],
    )
    def test_json_nan_rejected(self, tmp_path, field, value, fragment):
        doc = {
            "version": 1,
            "name": "seg",
            "dimension": 1,
            "vertices": [[0.0], [1.0]],
            "effects": {"e": {"affine": [0.5, 0.25]}},
        }
        doc[field] = value
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # writes the bare NaN literal
        with pytest.raises(ValueError, match=fragment):
            load_model(path)

    def test_non_affine_values_rejected(self, tmp_path):
        doc = {
            "version": 1,
            "name": "sq",
            "dimension": 2,
            "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
            "effects": {"bad": {"values": [1.0, 0.0, 0.0, 1.0]}},
        }
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RepresentabilityError):
            load_model(path)

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            (lambda d: {k: v for k, v in d.items() if k != "version"}, "version"),
            (lambda d: {**d, "version": 2}, "version"),
            (lambda d: {**d, "dimension": "two"}, "dimension"),
            (lambda d: {**d, "vertices": [[0.0], [1.0, 2.0]]}, "vertices"),
            (lambda d: {**d, "effects": {"e": {"spline": [1.0]}}}, "effects.e"),
            (lambda d: {**d, "effects": {"e": {"affine": [0.5]}}}, "effects.e"),
            (lambda d: {**d, "version": True}, "field 'version' must be int, got bool"),
            (lambda d: {**d, "dimension": True}, "field 'dimension' must be int, got bool"),
            (lambda d: {**d, "vertices": [[0.0], ["one"]]},
             "vertices[1] contains non-number 'one'"),
            (lambda d: [d], "top level must be an object"),
            (lambda d: {**d, "dimension": -1}, "field 'dimension' must be nonnegative"),
            (lambda d: {**d, "vertices": []}, "field 'vertices' must be nonempty"),
            (lambda d: {**d, "effects": {"e": [0.5, 0.25]}}, "effects.e must be an object"),
            (lambda d: {**d, "effects": {"e": {"affine": 0.5}}},
             "effects.e.affine must be a number list"),
            (lambda d: {**d, "effects": {"e": {"values": [0.5]}}},
             "effects.e.values needs 2 entries"),
        ],
    )
    def test_schema_violations_name_the_field(self, tmp_path, mutation, fragment):
        doc = {
            "version": 1,
            "name": "seg",
            "dimension": 1,
            "vertices": [[0.0], [1.0]],
            "effects": {"e": {"affine": [0.5, 0.25]}},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(mutation(doc)))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ") and fragment in str(err.value)

    @staticmethod
    def _huge_integer_model(tmp_path, field):
        # JSON allows integers that no double holds; 10**400 is one
        doc = {
            "version": 1,
            "name": "tri",
            "dimension": 2,
            "vertices": [[0, 0], [1, 0], [0, 1]],
            "effects": {"a": {"affine": [0.5, 0, 0]}, "b": {"values": [0.2, 0.9, 0.4]}},
        }
        lists = {"vertices[1]": doc["vertices"][1],
                 "effects.a.affine": doc["effects"]["a"]["affine"],
                 "effects.b.values": doc["effects"]["b"]["values"]}
        lists[field][1] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("field", ["vertices[1]", "effects.a.affine", "effects.b.values"])
    def test_integer_too_large_for_a_double_names_the_field(self, tmp_path, field):
        path = self._huge_integer_model(tmp_path, field)
        message = re.escape(f"{field} holds an integer too large for a double")
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("field", ["vertices[1]", "effects.a.affine", "effects.b.values"])
    def test_integer_too_large_for_a_double_is_a_cli_error(self, tmp_path, field, capsys):
        path = self._huge_integer_model(tmp_path, field)
        assert cli_main(["check", str(path), "a", "b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        # json.loads refuses integers of more than 4,300 digits (Python's
        # int-string limit) with a bare ValueError
        path = tmp_path / "digits.json"
        path.write_text('{"version": 1, "name": "seg", "dimension": 1, "vertices": '
                        '[[0], [' + "1" * 5000 + ']], "effects": {"u": {"affine": [1, 0]}}}')
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: ")):
            load_model(path)
        assert cli_main(["check", str(path), "u", "u"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "version": 1,\n  "name": oops\n}\n')
        with pytest.raises(ModelFormatError, match="line 3"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "nope.json")
