"""Tips encoded once per PatternSet: codes, sharing, and no re-tokenising."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.model import HKY85, SiteModel
from repro.model.statespace import (
    AMINO_ACID,
    CODON,
    NUCLEOTIDE,
    SENSE_CODONS,
    StateSpace,
)
from repro.partition import MultiDeviceLikelihood, split_pattern_set
from repro.seq import (
    Alignment,
    compress_patterns,
    simulate_alignment,
    synthetic_pattern_set,
)
from repro.tree import yule_tree


def _per_token_codes(space: StateSpace, rows) -> np.ndarray:
    """The per-token ``setTipStates`` encoding, one ``states_for`` each."""
    out = np.empty((len(rows), len(rows[0])), dtype=np.int32)
    for i, row in enumerate(rows):
        for j, tok in enumerate(row):
            states = space.states_for(tok)
            out[i, j] = states[0] if len(states) == 1 else space.n_states
    return out


def _rows(tokens, n_rows=5, seed=0):
    """``n_rows`` shuffles of ``tokens``: every token in every row, and
    columns that repeat only by chance."""
    rng = np.random.default_rng(seed)
    return [list(rng.permutation(tokens)) for _ in range(n_rows)]


NUCLEOTIDE_TOKENS = list("ACGTURYSWKMBDHVN-?X") + list("acgturysn")
AMINO_ACID_TOKENS = (
    list("ARNDCQEGHILKMFPSTWYV") + list("BZJX-?") + list("arndbzx")
)
CODON_TOKENS = list(SENSE_CODONS) + ["---", "NNN", "???", "atg", "Ttt"]


@pytest.mark.parametrize(
    "space, tokens",
    [
        (NUCLEOTIDE, NUCLEOTIDE_TOKENS),
        (AMINO_ACID, AMINO_ACID_TOKENS),
        (CODON, CODON_TOKENS),
    ],
    ids=["nucleotide", "aminoacid", "codon"],
)
def test_pattern_set_codes_equal_per_token_encoding(space, tokens):
    rows = _rows(tokens)
    aln = Alignment([f"s{i}" for i in range(len(rows))], rows, space)
    expected = _per_token_codes(space, rows)
    assert np.array_equal(aln.encode_states(), expected)
    for i, row in enumerate(rows):
        assert np.array_equal(space.encode_states(row), expected[i])
    data = compress_patterns(aln)
    assert data.tip_states.dtype == np.int32
    assert data.tip_states.shape == (len(rows), data.n_patterns)
    assert np.array_equal(
        data.tip_states,
        _per_token_codes(space, data.alignment.rows),
    )


def test_codes_are_read_only():
    aln = Alignment.from_strings({"a": "ACGT", "b": "AC-T"})
    data = compress_patterns(aln)
    assert not data.tip_states.flags.writeable
    with pytest.raises(ValueError):
        data.tip_states[0, 0] = 1


def test_codes_follow_rows_edited_before_compression():
    """Rows edited in place before ``compress_patterns`` are what the
    pattern set encodes (the idiom of the derivative tests' gap case)."""
    aln = Alignment.from_strings(
        {"a": "ATGAAA", "b": "ATGAAG"}, state_space="codon"
    )
    aln.rows[1][0] = "---"
    data = compress_patterns(aln)
    assert data.tip_states[1, 0] == CODON.n_states
    assert np.array_equal(
        data.tip_states, _per_token_codes(CODON, data.alignment.rows)
    )


def test_unknown_token_names_sequence_and_site():
    with pytest.raises(ValueError, match=r"b site 3: unknown nucleotide"):
        Alignment(["a", "b"], [list("ACGTA"), list("ACGZ!")], NUCLEOTIDE)
    # The first bad token in row order is reported, whatever its value.
    with pytest.raises(ValueError, match=r"a site 4: .*'Z'"):
        Alignment(["a", "b"], [list("ACGTZ"), list("!CGTA")], NUCLEOTIDE)
    with pytest.raises(ValueError, match="unknown codon token 'TAA'"):
        CODON.encode_states(["ATG", "TAA"])


@pytest.fixture(scope="module")
def workload():
    model = HKY85(kappa=2.0)
    site_model = SiteModel.gamma(0.5, 4)
    trees = [yule_tree(8, rng=40 + i) for i in range(2)]
    aln = simulate_alignment(trees[0], model, 300, site_model, rng=41)
    # Ambiguity, lowercase and RNA tokens on top of the simulated bases.
    aln.rows[0][:4] = ["R", "n", "-", "u"]
    return model, site_model, trees, compress_patterns(aln)


def _count_calls(monkeypatch, method):
    """Record every call of ``StateSpace.<method>`` from now on."""
    calls = []
    original = getattr(StateSpace, method)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(StateSpace, method, counted)
    return calls


def test_rebind_does_not_retokenise(workload, monkeypatch):
    model, site_model, trees, data = workload
    with TreeLikelihood(trees[1], data, model, site_model) as fresh:
        expected = fresh.log_likelihood()
    with TreeLikelihood(trees[0], data, model, site_model) as tl:
        tl.log_likelihood()
        lookups = _count_calls(monkeypatch, "states_for")
        encodes = _count_calls(monkeypatch, "code_table")
        tl.rebind(data, trees[1])
        assert lookups == [] and encodes == []
        assert tl.log_likelihood() == expected


def test_resplit_does_not_retokenise(workload, monkeypatch):
    model, site_model, trees, data = workload
    requests = {
        "host": backend_flags("cpu-sse"), "gpu": backend_flags("cuda")
    }
    with MultiDeviceLikelihood(
        trees[0], data, model, site_model, device_requests=requests
    ) as md:
        before = md.log_likelihood()
        lookups = _count_calls(monkeypatch, "states_for")
        encodes = []
        encode = Alignment.encode_states
        monkeypatch.setattr(
            Alignment, "encode_states",
            lambda self: encodes.append(self) or encode(self),
        )
        assert md.resplit([0.3, 0.7]) == ["host", "gpu"]
        assert lookups == [] and encodes == []
        for chunk, (lo, hi) in zip(md.chunks, md._spans):
            assert np.array_equal(
                chunk.tip_states, data.tip_states[:, lo:hi]
            )
        assert md.log_likelihood() == pytest.approx(before, rel=1e-12)


def test_chunks_are_views_of_the_parent_codes(workload):
    """A split encodes nothing: every chunk's codes are a view of the
    parent's, and equal what encoding the chunk's rows would give."""
    data = workload[3]
    synthetic = synthetic_pattern_set(8, 300, 4, rng=42)
    for parent in (data, synthetic):
        chunks = split_pattern_set(parent, [0.2, 0.5, 0.3])
        assert sum(chunk.n_patterns for chunk in chunks) == parent.n_patterns
        for chunk in chunks:
            assert np.shares_memory(chunk.tip_states, parent.tip_states)
            assert np.shares_memory(chunk.weights, parent.weights)
    for chunk in split_pattern_set(data, [0.2, 0.5, 0.3]):
        assert not chunk.tip_states.flags.writeable
        assert np.array_equal(
            chunk.tip_states, chunk.alignment.encode_states()
        )


@pytest.mark.parametrize("backend", ["cpu-sse", "cpu-serial", "cuda"])
def test_backends_keep_shared_codes_read_only(workload, backend):
    """Every backend reads the pattern set's shared, read-only codes:
    evaluating, re-evaluating after an edit, and the gradient sweep never
    write into a stored tip-states array (a write would raise)."""
    model, site_model, trees, data = workload
    before = data.tip_states.copy()
    with TreeLikelihood(
        trees[0].copy(), data, model, site_model,
        enable_upper_partials=True, **backend_flags(backend),
    ) as tl:
        host = tl.instance.impl._tip_states
        assert len(host) == trees[0].n_tips
        for states in host.values():
            assert not states.flags.writeable
            assert np.shares_memory(states, data.tip_states)
        tl.log_likelihood()
        tip = next(iter(tl.tree.root.tips()))
        tip.branch_length *= 1.5
        tl.update_branch_lengths([tip.index])
        tl.branch_gradient()
    assert np.array_equal(data.tip_states, before)
