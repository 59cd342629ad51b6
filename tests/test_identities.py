import dataclasses
import gc
import hashlib
import inspect
import json
from fractions import Fraction

import pytest

from heterobell import (
    IDENTITY_TAGS,
    Bernoulli,
    ParseError,
    UnknownIdentity,
    clear_caches,
    format_distribution,
    run_identities,
    run_identity,
    verify_identity,
)
from heterobell import identities
from heterobell.identities import GridConfig, identity_grid, load_grid_config

from .oracles import BERN_HALF, FS_ZERO_TWO, POISSON_ONE

HALF = Fraction(1, 2)

# one concrete in-grid parameter point per tag
SAMPLE_POINTS = {
    "T2.2": dict(dist="bernoulli:1/2", n=5, k=2, lam="1/3"),
    "T2.3": dict(dist="poisson:1", n=6, k=3),
    "T2.4": dict(dist="finite:0:1/2,2:1/2", n=5, k=2, lambdas=["0", "1/2", "2"]),
    "T2.8": dict(dist="bernoulli:1/2", n=2, m=2, t="1/2", lam="1/2"),
    "T2.9": dict(dist="poisson:1", n=6, lam="1/2"),
    "T2.10": dict(dist="bernoulli:1/2", n=5, lam="1/2", x="1/2", y="3"),
    "T2.11": dict(dist="poisson:1", n=6, lam="1/3"),
    "T2.12": dict(dist="bernoulli:1/2", n=5, k=2, lam="1/2", x="2"),
    "T2.13": dict(dist="poisson:1", n=5, k=2, lam="1/2", x="1/2"),
    "T2.16": dict(alpha="2", k=3, n=5, lam="1/2"),
    "T2.17": dict(alpha="1/2", n=5, lam="1/3"),
    "T2.18": dict(p="1/4", n=6, lam="1/2"),
    "L2.19": dict(n=7, k=3, lam="3"),
    "T2.20": dict(p="1/3", k=4, n=5, lam="1/2"),
    "LIMITS": dict(dist="bernoulli:1/2", n=6),
}


def test_every_tag_has_a_sample_point():
    assert set(SAMPLE_POINTS) == set(IDENTITY_TAGS)


@pytest.mark.parametrize("tag", sorted(SAMPLE_POINTS))
def test_identity_passes_at_sample_point(tag):
    report = verify_identity(tag, **SAMPLE_POINTS[tag])
    assert report.passed, report
    assert report.identity == tag
    assert report.left and report.right
    assert report.note is None


# the sample points' laws, built without the package's parser
_SAMPLE_LAWS = {"bernoulli:1/2": BERN_HALF, "poisson:1": POISSON_ONE, "finite:0:1/2,2:1/2": FS_ZERO_TWO}


def _typed(key: str, value):
    if key == "dist":
        return _SAMPLE_LAWS[value]
    if key == "lambdas":
        return tuple(Fraction(q) for q in value)
    if key in ("n", "m", "k"):
        return int(value)
    return Fraction(value)


def test_verify_accepts_typed_and_string_params():
    a = verify_identity("T2.2", dist=BERN_HALF, n=4, k=2, lam=Fraction(1, 3))
    b = verify_identity("T2.2", dist="bernoulli:1/2", n="4", k="2", lam="1/3")
    assert a == b
    assert a.passed
    # every tag's sample point, given as strings and as its typed twin
    names = set()
    for tag, point in SAMPLE_POINTS.items():
        strings = {key: [str(q) for q in v] if key == "lambdas" else str(v) for key, v in point.items()}
        typed = {key: _typed(key, v) for key, v in point.items()}
        assert verify_identity(tag, **strings) == verify_identity(tag, **typed), tag
        names |= set(point)
    assert names == {"dist", "lam", "x", "y", "t", "p", "alpha", "lambdas", "n", "m", "k"}


def test_report_shape_and_serialization():
    r = verify_identity("T2.16", alpha="2", k=2, n=3, lam="0")
    assert r.params == {"alpha": "2", "k": "2", "n": "3", "lam": "0"}
    d = r.as_dict()
    assert d["identity"] == "T2.16"
    assert d["pass"] is True
    assert isinstance(d["left"], list) and isinstance(d["right"], list)
    assert "note" not in d


def test_unknown_tag_raises():
    with pytest.raises(UnknownIdentity):
        verify_identity("BOGUS", n=1)
    with pytest.raises(UnknownIdentity):
        run_identities(["T2.2", "BOGUS"])


def test_missing_or_unknown_parameter_names_the_tag_and_its_parameters():
    message = r"identity T2\.2 takes the parameters dist, n, k, lam"
    with pytest.raises(ParseError, match=message + ", not dist, n, k$"):
        verify_identity("T2.2", dist="bernoulli:1/2", n=4, k=2)
    with pytest.raises(ParseError, match=message):
        verify_identity("T2.2", dist="bernoulli:1/2", n=4, k=2, lam="1/3", bogus=1)
    with pytest.raises(ParseError, match=r"identity LIMITS takes the parameters dist, n, not none"):
        verify_identity("LIMITS")


def test_identity_tags_keep_their_order():
    assert IDENTITY_TAGS == (
        "T2.2", "T2.3", "T2.4", "T2.8", "T2.9", "T2.10", "T2.11", "T2.12", "T2.13",
        "T2.16", "T2.17", "T2.18", "L2.19", "T2.20", "LIMITS",
    )


def test_both_sides_take_the_parameters_in_report_order():
    cfg = load_grid_config()
    for tag in IDENTITY_TAGS:
        identity = identities._IDENTITIES[tag]
        point = identity_grid(tag, cfg)[-1]
        assert list(point) == list(identity.params), tag
        # the report follows the tag's order, whatever the order of the keywords
        reversed_point = dict(reversed(point.items()))
        assert list(verify_identity(tag, **reversed_point).params) == list(identity.params), tag
        for side in (identity.left, identity.right):
            signature = inspect.signature(side)
            signature.bind(*point.values())
            if side.__module__ == identities.__name__:  # a side written for the tag uses its names
                assert list(signature.parameters) == list(identity.params), tag


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_a_wrong_side_fails_the_report_and_only_t2_8_notes_it(tag, monkeypatch):
    wrong = dataclasses.replace(identities._IDENTITIES[tag], left=lambda *params: Fraction(-1234, 567))
    monkeypatch.setitem(identities._IDENTITIES, tag, wrong)
    report = verify_identity(tag, **SAMPLE_POINTS[tag])
    assert not report.passed
    assert report.left == ["-1234/567"]
    assert report.as_dict().get("note") == (identities._SPLIT_NOTE if tag == "T2.8" else None)


def test_lambda_free_identity_fails_when_one_lambda_differs(monkeypatch):
    # the (1, -lam) row, whose entries are deg_stirling1(n, l, lam), off by one at lam = 2 only
    row = identities.triangle_row
    monkeypatch.setattr(identities, "triangle_row", lambda a, b, n: [v + (b == -2) for v in row(a, b, n)])
    r = verify_identity("T2.4", dist=FS_ZERO_TWO, n=4, k=2, lambdas=["0", "1/3", "1", "2"])
    assert not r.passed
    assert r.right[:3] == r.left * 3
    assert r.right[3] != r.left[0]


def test_lambda_free_identity_reports_all_lambdas():
    r = verify_identity(
        "T2.4", dist=FS_ZERO_TWO, n=4, k=2, lambdas=["0", "1/3", "1", "2"]
    )
    assert r.passed
    # one lambda-free left value, one right value per lambda, all equal
    assert len(r.left) == 1
    assert len(r.right) == 4
    assert set(r.right) == set(r.left)


def test_default_grid_loads_and_is_deterministic():
    cfg = load_grid_config()
    assert cfg.version == "1"
    for tag in IDENTITY_TAGS:
        pts = identity_grid(tag, cfg)
        assert pts, tag
        assert pts == identity_grid(tag, cfg)


def test_grids_hand_out_one_object_per_literal():
    # two loads of the config, so no parsed value is shared through the config itself
    for tag in IDENTITY_TAGS:
        first, second = identity_grid(tag, load_grid_config()), identity_grid(tag, load_grid_config())
        assert first == second
        for a, b in zip(first, second):
            for key in a.keys() & {"dist", "lam", "x", "y", "t", "alpha", "p"}:
                assert a[key] is b[key], (tag, key)
            if "lambdas" in a:
                assert all(u is v for u, v in zip(a["lambdas"], b["lambdas"]))
    # one literal is one object across tags too
    ones = [pt["lam"] for tag in ("T2.2", "T2.9", "T2.12") for pt in identity_grid(tag, load_grid_config())]
    assert len({id(lam) for lam in ones if lam == 1}) == 1


def test_literal_memo_is_bounded_and_cleared():
    assert identities._literal.cache_info().maxsize == 512
    identity_grid("T2.10", load_grid_config())
    assert identities._literal.cache_info().currsize > 0
    clear_caches()
    assert identities._literal.cache_info().currsize == 0


def test_grid_points_carry_expected_keys():
    cfg = load_grid_config()
    for point in identity_grid("T2.8", cfg):
        assert set(point) == {"dist", "n", "m", "t", "lam"}
    for point in identity_grid("T2.16", cfg):
        assert set(point) == {"alpha", "k", "n", "lam"}


def test_run_identity_all_green_on_shipped_grid():
    for tag in ("T2.3", "T2.11", "L2.19", "LIMITS"):
        reports = run_identity(tag)
        assert reports
        assert all(r.passed for r in reports)


def test_config_override_from_file(tmp_path):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(
        "[meta]\nversion = 7\n"
        "[defaults]\n"
        "dists = const:1\n"
        "lambdas = 1/2\n"
        "xs = 1\n"
        "nmax = 3\n"
    )
    cfg = load_grid_config(str(cfg_file))
    assert cfg.version == "7"
    pts = identity_grid("T2.9", cfg)
    assert pts == [
        {"dist": pts[0]["dist"], "n": n, "lam": Fraction(1, 2)} for n in range(4)
    ]
    reports = run_identities(["T2.9"], cfg)
    assert all(r.passed for r in reports)


def test_grid_config_is_frozen_dataclass():
    cfg = load_grid_config()
    assert isinstance(cfg, GridConfig)
    with pytest.raises(AttributeError):
        cfg.version = "2"


# shipped grid: (point count, first point, last point) per tag, keys in order
SHIPPED_GRID = {
    "T2.2": (1080, "dist=const:1 n=0 k=0 lam=0", "dist=finite:0:1/2,2:1/2 n=8 k=8 lam=5/2"),
    "T2.3": (135, "dist=const:1 n=0 k=0", "dist=poisson:1 n=8 k=8"),
    "T2.4": (
        135,
        "dist=const:1 n=0 k=0 lambdas=0,1/3,1/2,1,2",
        "dist=poisson:1 n=8 k=8 lambdas=0,1/3,1/2,1,2",
    ),
    "T2.8": (270, "dist=const:1 n=0 m=0 t=1/2 lam=0", "dist=poisson:1 n=4 m=0 t=1 lam=1"),
    "T2.9": (81, "dist=const:1 n=0 lam=0", "dist=poisson:1 n=8 lam=1"),
    "T2.10": (729, "dist=const:1 n=0 lam=0 x=1/2 y=1/3", "dist=poisson:1 n=8 lam=1 x=2 y=3"),
    "T2.11": (81, "dist=const:1 n=0 lam=0", "dist=poisson:1 n=8 lam=1"),
    "T2.12": (1215, "dist=const:1 n=0 k=0 lam=0 x=1/2", "dist=poisson:1 n=8 k=8 lam=1 x=2"),
    "T2.13": (1215, "dist=const:1 n=0 k=0 lam=0 x=1/2", "dist=poisson:1 n=8 k=8 lam=1 x=2"),
    "T2.16": (486, "alpha=1 k=0 n=0 lam=0", "alpha=1/2 k=5 n=8 lam=1"),
    "T2.17": (81, "alpha=1 n=0 lam=0", "alpha=1/2 n=8 lam=1"),
    "T2.18": (108, "p=1/4 n=0 lam=0", "p=1 n=8 lam=3"),
    "L2.19": (256, "n=1 k=1 lam=0", "n=8 k=8 lam=3"),
    "T2.20": (756, "p=1/4 k=0 n=0 lam=0", "p=1 k=6 n=8 lam=3"),
    "LIMITS": (27, "dist=const:1 n=0", "dist=poisson:1 n=8"),
}


def _shown(point: dict) -> str:
    def text(key, value):
        if key == "dist":
            return format_distribution(value)
        if key == "lambdas":
            return ",".join(str(q) for q in value)
        if key in ("alpha", "p"):  # the grid holds the law, shown by its parameter
            return str(getattr(value, key, value))
        return str(value)

    return " ".join(f"{key}={text(key, value)}" for key, value in point.items())


@pytest.mark.parametrize("tag", list(SHIPPED_GRID))
def test_shipped_grid_is_pinned(tag):
    count, first, last = SHIPPED_GRID[tag]
    pts = identity_grid(tag, load_grid_config())
    assert (len(pts), _shown(pts[0]), _shown(pts[-1])) == (count, first, last)


def test_shipped_grid_covers_every_tag_with_6655_points():
    assert list(SHIPPED_GRID) == list(IDENTITY_TAGS)
    assert sum(count for count, _, _ in SHIPPED_GRID.values()) == 6655


def test_user_config_is_laid_over_shipped_grid(tmp_path):
    cfg_file = tmp_path / "partial.cfg"
    cfg_file.write_text("[meta]\nversion = 3\n[defaults]\nnmax = 2\n")
    cfg = load_grid_config(str(cfg_file))
    assert cfg.version == "3"
    # 6 laws x 4 lambdas from the shipped [T2.2], 6 (n, k) pairs from nmax = 2
    assert len(identity_grid("T2.2", cfg)) == 144
    # a user [defaults] key beats the shipped tag section's key
    cfg_file.write_text("[defaults]\nlambdas = 1/2\n")
    cfg = load_grid_config(str(cfg_file))
    assert cfg.version == "1"
    pts = identity_grid("T2.2", cfg)
    assert {p["lam"] for p in pts} == {HALF}
    assert len(pts) == 6 * 45


# sha256 of each tag's reports under the shipped grids, as json.dumps(..., indent=2)
# of the as_dict() list; a new tag adds its digest, and no existing one may change
REPORT_SHA256 = {
    "T2.2": "0f2f866d664cc69107f0d0b050d371a7eeabd15778361283a6b67b92736dd6d4",
    "T2.3": "a777c462add2beb9ce3a175cddac53d3dbea1adb5f2fdecaf262fd02e5539736",
    "T2.4": "148b18dc5f7e2058f54fd1d30527c8e28d61dbd47ee3d4d8b12cb52b4b3342b6",
    "T2.8": "f75a8857997a808beec5d8345169e2796eaf1d6b1316f7d426d672ec293c6dde",
    "T2.9": "f7961e8ab2c8ff67c7cbd87ab85978f7b5ed2ed30adcd483d07f8e361eb58841",
    "T2.10": "13e102f9b58bb0fabcd06a639a1a5329f2d29a638d2c7fa4c460f7f476811da7",
    "T2.11": "ded6636a92f1b87c9d9844cd7758a5063fa8fb58b17d4323425f7ebb9a6ffdb1",
    "T2.12": "ad1e0b0800d4f9de655419ee92ae678b8bfb0e8afd4afa4e9f40df62bec9b981",
    "T2.13": "81d7c78bac7d7f72b6a09409d7e321a5ca437dbb0c86428a502c2d5705bb6ca9",
    "T2.16": "9dc1ff84e72ec932a5a21253d406105f5d24be13a12ecc089149b86bc0f73cde",
    "T2.17": "13d1af38966f18a9aec416351d9bb8297fc2217d32c334c8d5a010c31622a3a3",
    "T2.18": "35d85b77ca9d3cf0546b4996d764ae8f53e4f297763d730c92df9f70e741b07e",
    "L2.19": "12a69a4b78fbb9242b1d3138cc953520cfe7c721f4451beaf62b3d0181bdb789",
    "T2.20": "ab43d066175181951e5664e581a29b2bef41de5871d3b8fe0f3058b8760f845c",
    "LIMITS": "ba169fb634e68f8c0976bde989749e1a6cf82d4ebef353c74450fe757861754a",
}


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_shipped_grid_report_is_pinned(tag):
    reports = [r.as_dict() for r in run_identity(tag)]
    digest = hashlib.sha256(json.dumps(reports, indent=2).encode()).hexdigest()
    assert digest == REPORT_SHA256.get(tag), f"{tag} report digest {digest}"


def test_grid_points_share_one_law_per_listed_value():
    def live() -> int:
        gc.collect()
        return sum(type(obj) is Bernoulli for obj in gc.get_objects())

    clear_caches()
    before = live()
    run_identity("T2.20")
    ps = [s for s in load_grid_config().sections["T2.20"]["ps"].split(";") if s.strip()]
    # the memos keep the law of each point they missed on: one object per listed p
    assert live() - before <= len(ps)
