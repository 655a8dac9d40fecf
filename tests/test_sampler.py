import ast
import dataclasses
import importlib
import itertools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import funnelbias
from funnelbias import sampler
from funnelbias.errors import GridFormatError, NonPSDCovariance
from funnelbias.model import round_half_up
from funnelbias.sampler import (
    GRID_BIAS,
    GRID_K,
    GRID_MU,
    GRID_PI,
    GRID_SIGMA,
    MAX_K,
    BiasMechanism,
    BiasSpec,
    BivariateParams,
    SimCondition,
    default_grid,
    generate_block,
    generate_meta_analysis,
    generate_meta_analysis_traced,
    load_grid,
    replicate_rng,
)
from funnelbias.sampler import _logit_constants

FE = BivariateParams(mu=(1.0, -1.0))
SMALL = BivariateParams(mu=(1.0, -1.0), sigma_a2=0.5, sigma_ab=0.3, sigma_b2=0.5)


def condition(params=FE, k=10, pi=0.5, n_min=50, n_max=1000, bias=None):
    return SimCondition(params=params, k=k, pi=pi, n_min=n_min, n_max=n_max,
                        bias=bias or BiasSpec())


def _top_level_names(path):
    """Names a module's own top-level statements bind: defs, classes and assignments."""
    names = set()
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_sampler_exports_only_its_own_names():
    # a name re-exported from elsewhere (or left behind by a deletion) is not the sampler's API
    assert set(sampler.__all__) - _top_level_names(sampler.__file__) == set()


def test_package_imports_resolve():
    tree = ast.parse(Path(funnelbias.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"funnelbias.{node.module}")
        for alias in node.names:
            assert getattr(funnelbias, alias.asname or alias.name) is getattr(module, alias.name)


def test_sources_parse_at_the_declared_python_floor():
    """Every module parses with the grammar of Python 3.10, pyproject's ``requires-python`` floor.

    This checks the grammar only (``except*``, ``type`` aliases, PEP 695
    generics and the like), not the standard library a module imports or
    calls, which this interpreter's version provides.
    """
    sources = sorted(Path(funnelbias.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# ---------------------------------------------------------------------------
# parameters and primitives
# ---------------------------------------------------------------------------


def test_non_psd_covariance_rejected():
    with pytest.raises(NonPSDCovariance):
        BivariateParams(mu=(0, 0), sigma_a2=1.0, sigma_ab=2.0, sigma_b2=1.0)
    with pytest.raises(NonPSDCovariance):
        BivariateParams(mu=(0, 0), sigma_a2=-0.1)
    with pytest.raises(NonPSDCovariance):
        BivariateParams.from_matrix((0, 0), [[1.0, 0.2], [0.3, 1.0]])


def test_sqrt_matrix_squares_back():
    for params in (SMALL, BivariateParams(mu=(0, 0), sigma_a2=1.0, sigma_ab=0.5, sigma_b2=1.0)):
        root = params.sqrt_matrix()
        assert np.allclose(root @ root, params.matrix(), atol=1e-12)


def test_fixed_effects_constants_are_exact_copies():
    cond = condition(params=BivariateParams(mu=(2.0, -2.0)), bias=BiasSpec(BiasMechanism.MIXTURE, eta=(0.5, -0.25)))
    mean, shifted_mean, root = _logit_constants(cond.params, cond.bias.eta)
    assert mean.tolist() == [2.0, -2.0]
    assert shifted_mean.tolist() == [2.5, -2.25]
    assert (root == 0.0).all()


def test_sample_covariance_converges():
    cond = condition(params=BivariateParams(mu=(0.0, 0.0), sigma_a2=1.0, sigma_ab=0.5, sigma_b2=1.0))
    mean, _, root = _logit_constants(cond.params, cond.bias.eta)
    draws = mean + replicate_rng(1, 0, 0).standard_normal((100_000, 2)) @ root
    cov = np.cov(draws.T)
    assert np.allclose(cov, cond.params.matrix(), rtol=0.03, atol=0.01)


def assert_constants_are_derived(cond):
    """The condition's means and root are those of its params and bias, bit for bit, and read-only.

    Only a zero's sign is not kept (see ``test_signed_zeros_derive_the_same_constants``).
    """
    mean, shifted_mean, root = _logit_constants(cond.params, cond.bias.eta)
    assert mean.tobytes() == (np.array(cond.params.mu) + 0.0).tobytes()
    assert shifted_mean.tobytes() == (np.array(cond.params.shifted(cond.bias.eta).mu) + 0.0).tobytes()
    assert root.tobytes() == (cond.params.sqrt_matrix() + 0.0).tobytes()
    for constant in (mean, shifted_mean, root):
        assert constant.dtype == np.float64 and not constant.flags.writeable


def assert_identity_is_the_init_fields(cond):
    """==, hash and repr read only the init fields, and a pickle round trip keeps them and the constants."""
    init = (cond.params, cond.k, cond.pi, cond.n_min, cond.n_max, cond.bias)
    assert [f.name for f in dataclasses.fields(cond)] == ["params", "k", "pi", "n_min", "n_max", "bias"]
    assert hash(cond) == hash(init)
    assert repr(cond) == (
        f"SimCondition(params={cond.params!r}, k={cond.k!r}, pi={cond.pi!r}, "
        f"n_min={cond.n_min!r}, n_max={cond.n_max!r}, bias={cond.bias!r})"
    )
    again = SimCondition(*init)
    assert again == cond and hash(again) == hash(cond) and again is not cond
    assert dataclasses.replace(cond, k=cond.k + 1) != cond
    loaded = pickle.loads(pickle.dumps(cond))
    assert loaded == cond and hash(loaded) == hash(cond) and repr(loaded) == repr(cond)
    assert_constants_are_derived(loaded)


def test_default_grid_constants_are_derived():
    for cond in default_grid():
        assert_constants_are_derived(cond)
        assert_identity_is_the_init_fields(cond)


@st.composite
def drawn_conditions(draw):
    finite = st.floats(-8.0, 8.0, allow_subnormal=False)
    a2, b2 = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
    ab = draw(st.floats(-1.0, 1.0)) * math.sqrt(a2 * b2) * (1.0 - 1e-9)
    params = BivariateParams(mu=(draw(finite), draw(finite)), sigma_a2=a2, sigma_ab=ab, sigma_b2=b2)
    bias = draw(st.sampled_from([
        BiasSpec(),
        BiasSpec(BiasMechanism.SELECTION, selection_fraction=draw(st.floats(0.0, 0.9))),
        BiasSpec(BiasMechanism.MIXTURE, eta=(draw(st.floats(0.0, 3.0)), draw(st.floats(-3.0, 0.0)))),
    ]))
    return SimCondition(params, draw(st.integers(3, 40)), draw(st.sampled_from([0.2, 0.5])), 50, 1000, bias)


@settings(max_examples=100, deadline=None)
@given(cond=drawn_conditions())
def test_drawn_condition_constants_are_derived(cond):
    assert_constants_are_derived(cond)
    assert_identity_is_the_init_fields(cond)


def test_signed_zeros_derive_the_same_constants():
    # the constants are cached by equality, under which -0.0 == 0.0, so a condition and its twin with
    # negative zeros must derive the same bits, whichever of them fills the cache
    negative = condition(params=BivariateParams((-0.0, -0.0), -0.0, -0.0, 0.5),
                         bias=BiasSpec(BiasMechanism.MIXTURE, eta=(0.0, -0.0)))
    positive = condition(params=BivariateParams((0.0, 0.0), 0.0, 0.0, 0.5), bias=BiasSpec(BiasMechanism.MIXTURE))
    assert negative == positive
    assert np.signbit(negative.params.sqrt_matrix()).any()  # the root itself keeps a -0.0
    derived = [_logit_constants.__wrapped__(c.params, c.bias.eta) for c in (negative, positive)]
    assert [a.tobytes() for a in derived[0]] == [a.tobytes() for a in derived[1]]


@settings(max_examples=200, deadline=None)
@given(reps=st.integers(1, 1100), n=st.integers(1, 200), start=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_slice_of_a_stacked_product_is_the_product_of_the_slice(reps, n, start, seed):
    # a mixture block draws its offsets as one (reps, n, 2) @ (2, 2) product and adds its
    # shifted means to the tail, which must hold the bits of the tail's own product
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((reps, n, 2))
    root = rng.standard_normal((2, 2))
    start = min(start, n)
    assert (normals @ root)[:, start:].tobytes() == (normals[:, start:] @ root).tobytes()


def test_generated_tables_mean_behavior():
    cond = condition(params=BivariateParams(mu=(2.0, -2.0)), k=3, n_min=200_000, n_max=200_000)
    for table in generate_meta_analysis(cond, replicate_rng(2, 0, 0)).studies:
        assert abs(table.x / table.n1 - float(expit(2.0))) < 0.005 * float(expit(2.0))
        assert table.x + table.w == 100_000
        assert table.y + table.z == 100_000
    # theta = 0 gives Sen = 0.5
    cond = condition(params=BivariateParams(mu=(0.0, 0.0)), k=10, n_min=400, n_max=400)
    xs = [t.x for i in range(20) for t in generate_meta_analysis(cond, replicate_rng(3, 0, i)).studies]
    assert abs(np.mean(xs) - 100.0) < 2.0


def _group_sizes(block):
    """(n1, n2) of each (x, w, y, z) table on the last axis."""
    return np.stack((block[..., 0] + block[..., 1], block[..., 2] + block[..., 3]), axis=-1)


def test_sample_sizes_rounding():
    cond = condition(pi=0.5, n_min=101, n_max=101)
    block = generate_block(cond, [replicate_rng(5, 0, rep) for rep in range(3)])
    assert block.shape == (3, 10, 4) and block.dtype == np.int64
    assert (_group_sizes(block) == [51, 50]).all()
    cond = condition(pi=0.2, n_min=50, n_max=50)
    assert (_group_sizes(generate_block(cond, [replicate_rng(5, 0, 1)])) == [10, 40]).all()
    # n1 = round(pi * N), halves up, at every drawn N
    cond = condition(pi=0.5, n_min=51, n_max=60)
    n1, n2 = _group_sizes(generate_block(cond, [replicate_rng(5, 0, 2)]))[0].T
    assert n1.tolist() == [round_half_up(0.5 * n) for n in (n1 + n2).tolist()]


def test_sample_sizes_uniform_mean():
    cond = condition(k=100, n_min=50, n_max=1000)
    block = generate_block(cond, [replicate_rng(6, 0, rep) for rep in range(1000)])
    assert abs(np.mean(_group_sizes(block).sum(axis=-1)) - 525.0) < 0.01 * 525.0


def test_small_n_min_leaving_a_group_empty_rejected():
    for pi, n_min in ((0.2, 1), (0.2, 2), (0.5, 1), (0.9, 2), (0.8, 2)):
        with pytest.raises(ValueError, match="leaves a group empty"):
            condition(pi=pi, n_min=n_min, n_max=max(n_min, 4))
    # n1 = round(0.6) = 1 and n2 = 2 at N = 3; larger N only adds to either
    assert condition(pi=0.2, n_min=3, n_max=4).n_min == 3


# ---------------------------------------------------------------------------
# generation mechanisms
# ---------------------------------------------------------------------------


def test_generate_none_count():
    ds = generate_meta_analysis(condition(k=10), replicate_rng(7, 0, 0))
    assert ds.k == 10


def test_generate_deterministic():
    a = generate_meta_analysis(condition(params=SMALL, k=12), replicate_rng(8, 3, 5))
    b = generate_meta_analysis(condition(params=SMALL, k=12), replicate_rng(8, 3, 5))
    assert a.studies == b.studies
    assert all(type(cell) is int for t in a.studies for cell in (t.x, t.w, t.y, t.z))


def _scalar_pairs(params, count, rng):
    """``count`` logit pairs mu + z @ sqrt(Sigma); fixed effects draw no normals."""
    if params.is_fixed_effects:
        return np.tile(params.mu, (count, 1))
    return np.array(params.mu) + rng.standard_normal((count, 2)) @ params.sqrt_matrix()


def _scalar_tables(cond, rng):
    """The documented draw order, one scalar binomial call per cell."""
    bias, k = cond.bias, cond.k
    n_drop = n_shifted = 0
    if bias.mechanism is BiasMechanism.SELECTION:
        n_drop = round_half_up(bias.selection_fraction * k)
    elif bias.mechanism is BiasMechanism.MIXTURE:
        n_shifted = round_half_up(bias.mixture_fraction * k)
    total = k + n_drop
    totals = rng.integers(cond.n_min, cond.n_max + 1, size=total).tolist()
    sizes = [(round_half_up(cond.pi * n), n - round_half_up(cond.pi * n)) for n in totals]
    pairs = _scalar_pairs(cond.params, total - n_shifted, rng)
    sources = list(range(total))
    if n_shifted:
        shifted = _scalar_pairs(cond.params.shifted(bias.eta), n_shifted, rng)
        pairs = np.vstack([pairs, shifted])
        sources = rng.permutation(k).tolist()
    tables = []
    for (n1, n2), src in zip(sizes, sources):
        x = int(rng.binomial(n1, float(expit(pairs[src, 0]))))
        y = int(rng.binomial(n2, float(expit(pairs[src, 1]))))
        tables.append((x, n1 - x, y, n2 - y))
    if not n_drop:
        return tables
    scores = [x / (x + w) + z / (y + z) - 1.0 for x, w, y, z in tables]
    order = sorted(range(total), key=lambda i: (scores[i], sum(tables[i]), i))
    dropped = set(order[:n_drop])
    return [t for i, t in enumerate(tables) if i not in dropped]


SELECT_40 = BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4)


@pytest.mark.parametrize(
    "cond",
    [
        condition(params=SMALL, pi=0.2, n_min=10, n_max=40),
        condition(params=SMALL, pi=0.2, n_min=10, n_max=40, bias=SELECT_40),
        condition(params=SMALL, pi=0.2, n_min=10, n_max=40, bias=BiasSpec(
            BiasMechanism.MIXTURE, eta=(1.25, -1.25))),
        # one study size: ties in the observed Youden index fall back to draw order
        condition(params=FE, n_min=10, n_max=10, bias=SELECT_40),
    ],
    ids=["none", "selection-observed", "mixture", "selection-ties"],
)
def test_stream_contract_matches_scalar_draws(cond):
    for rep in range(30):
        expected = _scalar_tables(cond, replicate_rng(15, 2, rep))
        dataset = generate_meta_analysis(cond, replicate_rng(15, 2, rep))
        assert [(t.x, t.w, t.y, t.z) for t in dataset.studies] == expected


def test_selection_drops_lowest_youden():
    bias = BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4)
    cond = condition(params=SMALL, k=30, bias=bias)
    ds, trace = generate_meta_analysis_traced(cond, replicate_rng(9, 0, 0))
    assert ds.k == 30
    assert trace.generated == 42
    assert len(trace.dropped_youden) == 12
    assert min(trace.kept_youden) >= max(trace.dropped_youden)


def test_selection_small_fraction_rounding():
    bias = BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.2)
    cond = condition(k=10, bias=bias)
    _, trace = generate_meta_analysis_traced(cond, replicate_rng(10, 0, 0))
    assert trace.generated == 12


def test_mixture_component_counts():
    bias = BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25))
    cond = condition(k=30, bias=bias)
    ds, trace = generate_meta_analysis_traced(cond, replicate_rng(12, 0, 0))
    assert ds.k == 30
    assert trace.origins.count("shifted") == 10
    assert trace.origins.count("base") == 20
    # k = 10 rounds one third up to 3
    cond = condition(k=10, bias=bias)
    _, trace = generate_meta_analysis_traced(cond, replicate_rng(12, 0, 1))
    assert trace.origins.count("shifted") == 3


def test_mixture_shift_direction_validated():
    with pytest.raises(ValueError):
        BiasSpec(BiasMechanism.MIXTURE, eta=(-0.75, 0.75))


def test_mixture_shifts_accuracy_upward():
    bias = BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25))
    cond = condition(params=FE, k=30, n_min=500, n_max=500, bias=bias)
    shifted_y, base_y = [], []
    for rep in range(50):
        _, trace = generate_meta_analysis_traced(cond, replicate_rng(13, 0, rep))
        for origin, y in zip(trace.origins, trace.kept_youden):
            (shifted_y if origin == "shifted" else base_y).append(y)
    assert np.mean(shifted_y) > np.mean(base_y)


def test_observed_logit_sen_matches_mu():
    cond = condition(params=FE, k=100, pi=0.5, n_min=1000, n_max=1000)
    logits = []
    for rep in range(100):
        ds = generate_meta_analysis(cond, replicate_rng(14, 0, rep))
        logits.extend(math.log(t.x / t.w) for t in ds.studies)
    assert abs(np.mean(logits) - 1.0) < 0.02


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------


def test_default_grid_order():
    cells = [
        (c.params.mu, (c.params.sigma_a2, c.params.sigma_ab, c.params.sigma_b2), c.k, c.pi, c.bias)
        for c in default_grid()
    ]
    assert cells == list(itertools.product(GRID_MU, GRID_SIGMA, GRID_K, GRID_PI, GRID_BIAS))


def test_default_grid_cardinality():
    grid = default_grid()
    assert len(grid) == 240
    assert len(set(grid)) == 240


def test_default_grid_contains_expected_cell():
    target = SimCondition(
        params=BivariateParams(mu=(2.0, -2.0), sigma_a2=1.0, sigma_ab=0.5, sigma_b2=1.0),
        k=30,
        pi=0.2,
        n_min=50,
        n_max=1000,
        bias=BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4),
    )
    assert target in default_grid()


def test_default_grid_n_range():
    assert all(c.n_min == 50 and c.n_max == 1000 for c in default_grid())


def test_default_grid_bias_levels():
    strengths = {(b.mechanism.value, b.strength) for b in GRID_BIAS}
    assert strengths == {
        ("none", 0.0),
        ("selection", 0.2),
        ("selection", 0.4),
        ("mixture", 0.75),
        ("mixture", 1.25),
    }


def test_load_grid(tmp_path):
    spec = {
        "mu": [[1, -1], [2, -2]],
        "sigma": [[[0, 0], [0, 0]]],
        "k": [10],
        "pi": [0.5, 0.2],
        "bias": [
            {"mechanism": "none"},
            {"mechanism": "selection", "fraction": 0.2},
            {"mechanism": "mixture", "eta": [0.75, -0.75]},
        ],
        "n_min": 100,
        "n_max": 200,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    grid = load_grid(path)
    assert len(grid) == 2 * 1 * 1 * 2 * 3
    assert all(c.n_min == 100 and c.n_max == 200 for c in grid)


def test_load_grid_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GridFormatError):
        load_grid(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"mu": [[0, 0]]}))
    with pytest.raises(GridFormatError):
        load_grid(missing)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "mu": [[0, 0]], "sigma": [[[0, 0], [0, 0]]], "k": [5], "pi": [0.5],
        "bias": [{"mechanism": "quota"}],
    }))
    with pytest.raises(GridFormatError):
        load_grid(unknown)
    # input the reader used to ignore, cut short or convert: each error names the key or value
    ignored = [
        ({"n_mn": 500}, "unknown key 'n_mn' in the grid; accepted: mu, sigma, k, pi, bias, n_min, n_max"),
        ({"mu": [[2, -2, 99]]}, r"pair of numbers, got \[2, -2, 99\]"),
        ({"mu": [[2]]}, r"pair of numbers, got \[2\]"),
        ({"bias": [{"mechanism": "mixture", "eta": [1, -1, 5]}]}, r"pair of numbers, got \[1, -1, 5\]"),
        ({"pi": ["0.5"]}, "expected a number, got '0.5'"),
        ({"pi": [True]}, "expected a number, got True"),
        ({"k": [True]}, "expected an integer, got True"),
        ({"n_max": "100"}, "expected an integer, got '100'"),
        ({"sigma": [[["0", 0], [0, 0]]]}, "expected a number, got '0'"),
        ({"bias": [{"mechanism": "selection", "fraction": "0.2"}]}, "expected a number, got '0.2'"),
        ({"bias": [{"mechanism": "none", "fraction": 0.2}]}, "unknown key 'fraction' in a none bias entry"),
        ({"bias": [{"mechanism": "selection", "fraction": 0.2, "eta": [1, -1]}]},
         "unknown key 'eta' in a selection bias entry; accepted: mechanism, fraction"),
        ({"bias": [{"mechanism": "mixture", "eta": [1, -1], "share": 0.5}]},
         "unknown key 'share' in a mixture bias entry; accepted: mechanism, eta, fraction"),
        ({"bias": [5]}, "a bias entry must be a JSON object, got 5"),
    ]
    path = tmp_path / "grid.json"
    for change, message in ignored:
        path.write_text(json.dumps({**GRID_SPEC, **change}))
        with pytest.raises(GridFormatError, match=message):
            load_grid(path)
    path.write_text(json.dumps([GRID_SPEC]))
    with pytest.raises(GridFormatError, match="a grid must be a JSON object, got list"):
        load_grid(path)


GRID_SPEC = {
    "mu": [[1, -1]], "sigma": [[[0, 0], [0, 0]]], "k": [10], "pi": [0.5],
    "bias": [{"mechanism": "none"}], "n_min": 50, "n_max": 100,
}


NOT_FINITE_MESSAGE = (
    "logit means (nan, -1.0) and (nan, -2.0) and covariance root [[0.0, 0.0], [0.0, 0.0]] must be finite"
)


def test_condition_that_is_not_finite_names_its_constants(tmp_path):
    mixture = BiasSpec(BiasMechanism.MIXTURE, eta=(1.0, -1.0))
    with pytest.raises(ValueError) as info:
        condition(params=BivariateParams(mu=(math.nan, -1.0)), bias=mixture)
    assert str(info.value) == NOT_FINITE_MESSAGE
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID_SPEC, "mu": [[math.nan, -1]], "bias": [{"mechanism": "mixture", "eta": [1, -1]}]}))
    with pytest.raises(GridFormatError) as info:
        load_grid(path)
    assert str(info.value) == f"bad grid values: {NOT_FINITE_MESSAGE}"


@pytest.mark.parametrize("key,value", [
    ("k", [10.9]), ("k", [10, 30.5]), ("n_min", 50.7), ("n_max", 99.9), ("k", ["ten"]),
])
def test_load_grid_rejects_non_integral_sizes(tmp_path, key, value):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID_SPEC, key: value}))
    with pytest.raises(GridFormatError, match="integer|invalid literal"):
        load_grid(path)


def test_load_grid_accepts_integral_floats(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID_SPEC, "k": [10.0, 30], "n_min": 50.0, "n_max": 100}))
    grid = load_grid(path)
    assert [(c.k, c.n_min, c.n_max) for c in grid] == [(10, 50, 100), (30, 50, 100)]
    assert all(type(v) is int for c in grid for v in (c.k, c.n_min, c.n_max))


@pytest.mark.parametrize("n_min,n_max", [(50, 2**63), (2**63, 2**63), (50, 10**19)])
def test_load_grid_rejects_sizes_past_int64(tmp_path, n_min, n_max):
    # the sizes are drawn as int64
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID_SPEC, "n_min": n_min, "n_max": n_max}))
    with pytest.raises(GridFormatError, match="bad sample-size range"):
        load_grid(path)
    path.write_text(json.dumps({**GRID_SPEC, "n_min": n_min - 1, "n_max": 2**63 - 1}))
    (largest,) = load_grid(path)
    assert generate_block(largest, [replicate_rng(1, 0, 0)]).sum(axis=-1).min() >= n_min - 1


def test_replicate_rng_streams_are_stable_and_distinct():
    a = replicate_rng(42, 1, 7).standard_normal(4)
    b = replicate_rng(42, 1, 7).standard_normal(4)
    c = replicate_rng(42, 1, 8).standard_normal(4)
    assert (a == b).all()
    assert not (a == c).all()


def test_k_is_bounded():
    assert condition(k=MAX_K).k == MAX_K == 10_000
    with pytest.raises(ValueError, match=r"^k must be in \[3, 10000\], got 10001$"):
        condition(k=MAX_K + 1)
