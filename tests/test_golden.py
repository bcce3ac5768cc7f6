"""Golden digests: the lemma's reports and the ``graph`` command's output
pinned byte for byte.

Each digest is the sha256 of one line per report, over every ordered pair
of generator subsets with n <= 5, each pair verified with the parabolic
check on and then off (682 reports): ``json.dumps(r.record(),
sort_keys=True)`` for the record digest, ``r.to_text()`` for the text
digest.  Besides the honest run, two planted faults pin the failure
reports: a meet that always reads K's mask, and a double set cut to its
first witness.  A digest certifies nothing by itself; it pins output
that the checks passed on the commit that recorded it, so changing a
constant changes a check and needs a stated reason.

Recorded on commit a216c2c with this module's ``lemma_digests``.

The graph digest is the sha256 of the stdout of ``graph n --subset <j>``
and then of the same command with ``--dot``, for every subset j with
n <= 6 in ``all_generator_subsets`` order, run in-process through
``cli.main``.  Recorded on commit ce84ca3 with ``graph_digest``.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from descents import all_generator_subsets, cli, cosets, verify_subset_pair

# fault: (failing reports, "no witness hits" lines, record sha256,
# text sha256)
LEMMA_DIGESTS = {
    "honest": (
        0, 0,
        "6f6994761a8d63473486a9b4eeaacdd48cd74da83df81af00dd86e8a23cd3955",
        "30bc56ef8774c57b98bae087fccee2b34934e17658361eca3f44cd916b66ba03"),
    "meet-is-k": (
        568, 0,
        "603eebf17c66d416030693a0be7a3c14128dd0b5d0cf5048d03cd665f3fe9f62",
        "312d0484e01da985c2a0464392d86ce4a1c21d4d4d0e20482a855f1de0d84c17"),
    "first-witness-only": (
        568, 3368,
        "5c011cbf1755eb4378bcb16b58c0162decad71a521747f92773d0f9444f906af",
        "883f741348f7d0da0d500cdacd5a2a0d565af4e32aed70e4230add01222f6939"),
}


def lemma_digests():
    """(reports, failing reports, "no witness hits" lines, record sha256,
    text sha256) over the 682 reports, in pair order, parabolic inner."""
    records, texts = hashlib.sha256(), hashlib.sha256()
    reports = failing = missing = 0
    for n in range(1, 6):
        subsets = all_generator_subsets(n)
        for j, k in itertools.product(subsets, subsets):
            for parabolic in (True, False):
                report = verify_subset_pair(j, k, parabolic=parabolic)
                text = report.to_text()
                reports += 1
                failing += not report.passed
                missing += text.count("no witness hits")
                records.update((json.dumps(report.record(), sort_keys=True)
                                + "\n").encode())
                texts.update((text + "\n").encode())
    return (reports, failing, missing, records.hexdigest(),
            texts.hexdigest())


@pytest.mark.parametrize("fault", list(LEMMA_DIGESTS))
def test_lemma_reports_match_their_digests(monkeypatch, fault):
    if fault == "meet-is-k":
        monkeypatch.setattr(cosets, "_meet", lambda x, j, k: k.mask)
    elif fault == "first-witness-only":
        stream = cosets.enumerate_double_set
        monkeypatch.setattr(cosets, "enumerate_double_set",
                            lambda *args, **kwargs: itertools.islice(
                                stream(*args, **kwargs), 1))
    assert lemma_digests() == (682, *LEMMA_DIGESTS[fault])


GRAPH_DIGEST = (
    "e9e4f3eff325bbe00d9572011b7f794ebc2a6d49f35a36bf549f023f07dd4756")


def graph_digest():
    """sha256 of the ``graph`` command's stdout, plain then ``--dot``, for
    every subset with n <= 6."""
    digest = hashlib.sha256()
    for n in range(1, 7):
        for j in all_generator_subsets(n):
            for extra in ([], ["--dot"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = cli.main(
                        ["graph", str(n), "--subset", j.to_text(), *extra])
                assert status == 0
                digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_graph_output_matches_its_digest():
    assert graph_digest() == GRAPH_DIGEST
