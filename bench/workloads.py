"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), yields its ops round by round, runs one op, and checks the op's
output outside the timed region. Calls into the library go through
``tr.call(name, fn, ...)`` so that a traced run can record a span around
each of them; ``tr.count`` records per-layer counts.

Workload choice, in short: ``catalog`` is the exhaustive search and the
catalog rendering, ``factor`` the determinant factorization and the pair
analyses, ``sweep`` the same search/encode/analysis layers through many
small calls plus the principal decomposition, ``cli`` the command line run
as a subprocess. Each layer that one workload stresses is idle or light in
another, so a change to it shows on one workload and not on the others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import inputs
import speed

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    """Defaults for workloads that own no files and measure no extras.

    Each workload sets ``ROUND_S``, the op time of one round at the
    reference speed on the seed commit (``run.rounds_for``).
    """

    def close(self) -> None:
        pass

    def scaler(self) -> speed.Scaler:
        """What scales this workload's op times to the reference speed."""
        return speed.Scaler()

    def extras(self, tr, rounds: int) -> dict:
        return {}


def parse_pair(lib, tr, text: str):
    """Parse a generated pair; None unless its equations are independent
    (``bounds(...).status == "ok"``)."""
    system, names = tr.call("textio.parse_system", lib.textio.parse_system, text)
    E, Ep = system.equations
    if E == Ep or lib.analysis.bounds(E, Ep).status != "ok":
        return None
    return system, names


def seeded_pairs(lib, tr, rng, count, n, side_lo, side_hi):
    """``count`` independent pairs over ``n`` unknowns."""
    out = []
    while len(out) < count:
        text, h = inputs.solved_pair(rng, n, side_lo, side_hi)
        parsed = parse_pair(lib, tr, text)
        if parsed is not None:
            out.append((text, h, *parsed))
    return out


def strata(cands, count):
    """Sort ``(proxy, index, ...)`` candidates by their cost proxy, cut them
    into ``count`` groups of three and yield each group as middle, lower,
    upper. Taking the first usable member of every group gives each seed the
    same spread of op costs."""
    cands = sorted(cands, key=lambda c: c[:2])
    for g in range(count):
        lower, middle, upper = cands[3 * g : 3 * g + 3]
        yield [middle, lower, upper]


def forked(fn):
    """Run ``fn()`` in a forked child and return its result, which must
    pickle. The child's allocations count under ``RUSAGE_CHILDREN``, not in
    this process's peak memory. A ``CheckFailed`` (or any other error) in
    the child is raised here as ``CheckFailed``."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            result = (True, fn())
        except BaseException as exc:
            result = (False, str(exc) if isinstance(exc, CheckFailed) else repr(exc))
        with os.fdopen(wfd, "wb") as fh:
            pickle.dump(result, fh)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    require(status == 0 and data, f"check process ended with status {status}")
    ok, value = pickle.loads(data)
    require(ok, value)
    return value


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def images(morphisms) -> list[list[str]]:
    return [[str(im) for im in h.images] for h in morphisms]


# ---------------------------------------------------------------------------


class Catalog(Workload):
    """enumerate_solutions -> to_json -> csv_rows on one system per op.

    Every round runs the paper pair at L=12, whose catalog holds 26,155
    solutions and whose ``to_json`` is quadratic, and then each of
    ``SEEDED`` seeded pairs once. The paper op takes most of a round's time,
    so it sets ``ops_per_s``; the seeded ops are most of the ops, so they
    set ``op_p50_ms`` and ``op_tail_ms``. Seeded pairs alternate between 3
    and 4 unknowns, and each gets the largest L at which the search tests at
    most ``SCANNED`` candidates (those whose length type balances both
    equations). Their op times spread widely with their solution counts, so
    the pool is large: over ten seeds the median of 60 mid-size seeded ops
    spread by about 0.3 (quartile distance over median). Over eight seeds,
    with every op timed twice and scaled to the reference speed, the median
    of 200 small ones spread by 0.066 and the tail by 0.041.

    The paper catalog is checked in a forked process (``forked``), so the
    memory its check allocates does not count in the workload's peak.
    """

    SCANNED = 400
    SEEDED = 200
    ROUND_S = 8.3

    def __init__(self, lib, seed: int, tiny: bool, tr):
        self.lib = lib
        self.seed = seed
        s = lib.search
        rng = random.Random(seed)
        paper, names = tr.call("textio.parse_system", lib.textio.parse_system, inputs.PAPER_PAIR)
        self.paper = (paper, s.SearchConfig(6 if tiny else 12, 2))
        count = 4 if tiny else self.SEEDED
        budget = 100 if tiny else self.SCANNED
        self.seeded = []
        while len(self.seeded) < count:
            n = (3, 4)[len(self.seeded) % 2]
            text, _h = inputs.solved_pair(rng, n, 4, 6)
            parsed = parse_pair(lib, tr, text)
            if parsed is not None:
                L = max(L for L, c in enumerate(inputs.scanned_candidates(text, 16)) if c <= budget)
                self.seeded.append((parsed[0], s.SearchConfig(L, 2)))
        rng.shuffle(self.seeded)
        self.verified: dict[int, tuple[str, str]] = {}

    def round(self, r: int):
        return [self.paper, *self.seeded]

    def op(self, item, tr):
        system, cfg = item
        s = self.lib.search
        catalog = tr.call("search.enumerate_solutions", s.enumerate_solutions, system, cfg)
        payload = tr.call("search.to_json", catalog.to_json)
        rows = tr.call("search.csv_rows", catalog.csv_rows)
        tr.count("search.candidates", s.search_space_size(system.n, cfg))
        tr.count("search.solutions", len(catalog.solutions))
        return catalog, payload, rows

    def check(self, item, out) -> None:
        """Full check the first time a system is seen; afterwards the output
        must match the verified one. Only a digest is kept, so the timed ops
        do not run next to a retained catalog."""
        seen = self.verified.get(id(item))

        def check_digest():
            catalog, payload, rows = out
            digest = (sha256_json([payload, rows]), sha256_json(images(catalog.solutions)))
            if seen is None:
                self.check_catalog(item, catalog, payload, rows)
            else:
                require(digest == seen, "catalog differs from its verified copy")
            return digest

        # The paper catalog's check allocates more than its op; a forked
        # child keeps that out of the peak. The small catalogs are checked
        # in place: a fork leaves this process's pages copy-on-write, and
        # the next op would pay the faults.
        self.verified[id(item)] = forked(check_digest) if item is self.paper else check_digest()

    def check_catalog(self, item, catalog, payload, rows) -> None:
        w = self.lib.words
        system, cfg = item
        n, k = system.n, cfg.alphabet_size
        sols = catalog.solutions
        members = set(sols)
        require(len(members) == len(sols), "duplicate solutions")
        keys = [(sum(h.length_type()), h.length_type(), [im.symbols for im in h.images]) for h in sols]
        require(all(a < b for a, b in zip(keys, keys[1:])), "solutions out of enumeration order")
        require(all(w.is_solution(h, system) for h in sols), "a listed morphism is not a solution")
        # Renaming the target letters maps solutions to solutions of the same
        # length type, so the catalog is closed under it.
        for h in sols:
            shifted = w.Morphism(
                tuple(w.Word(tuple((s + 1) % k for s in im)) for im in h.images), k
            )
            require(shifted in members, f"catalog misses the renaming of {h}")
        # A seeded catalog's search space holds at most a few hundred
        # candidates, so a smaller sample covers a larger share of it.
        rng = random.Random(self.seed)
        for _ in range(300 if item is self.paper else 30):
            lt = [rng.randint(0, cfg.max_total_image_length) for _ in range(n)]
            while sum(lt) > cfg.max_total_image_length:
                lt[rng.randrange(n)] //= 2
            cand = w.Morphism(
                tuple(w.Word(tuple(rng.randrange(k) for _ in range(l))) for l in lt), k
            )
            if cand not in members:
                require(not w.is_solution(cand, system), f"catalog misses solution {cand}")
        ranks = [w.rank(h) for h in sols]
        require(payload["solution_count"] == len(sols), "solution_count")
        require(payload["rank_counts"] == {str(r): c for r, c in sorted(Counter(ranks).items())}, "rank_counts")
        classes = payload["classes"]
        sizes = Counter()
        for h, r, entry, row in zip(sols, ranks, payload["solutions"], rows):
            require(entry["images"] == [str(im) for im in h.images], "images")
            require(entry["rank"] == r, f"rank of {h}")
            cid = entry["class"]
            if r == n - 1:
                require(0 <= cid < len(classes), f"class of {h}")
                require(classes[cid]["normal"] == list(w.gamma_normal(h).entries), f"normal of {h}")
                sizes[cid] += 1
            else:
                require(cid == -1, f"class of rank-{r} solution {h}")
            require(row == (" ".join(map(str, h.length_type())), r, cid), f"csv row of {h}")
        require(len(payload["solutions"]) == len(rows) == len(sols), "row counts")
        require([c["size"] for c in classes] == [sizes[i] for i in range(len(classes))], "class sizes")

    def extras(self, tr, rounds: int) -> dict:
        """Two-process enumeration of the paper pair, the one system large
        enough for ``workers=2`` to pay for its process pool."""
        system, cfg = self.paper
        t0 = time.perf_counter()
        catalog = self.lib.search.enumerate_solutions(system, cfg, workers=2)
        elapsed = time.perf_counter() - t0
        digest = sha256_json(images(catalog.solutions))
        require(digest == self.verified[id(self.paper)][1], "two-process catalog differs")
        return {"search.enumerate_solutions.workers2.s": elapsed}


# ---------------------------------------------------------------------------


class Factor(Workload):
    """Determinants, factorizations and pair analyses of one seeded pair per op.

    Op cost grows with the size of the determinants, and pairs over 4
    unknowns cost about 2.5 times those over 3. So candidates take their
    kind from ``KINDS`` in turn and the pool is stratified by the sum of the
    squared term counts of their determinants (a rank correlation of about
    0.9 with op time): candidates are sorted by it and the middle
    independent pair of each group of three is kept (``strata``), so every
    seed sees the same mix of cheap and expensive pairs, heavy tail
    included. At 15 s a run makes one round, so op_tail_ms (ten ops beyond
    it) is set by eleven distinct pairs: with 192 pairs in two rounds it was set by
    the six heaviest, and spread by 0.17 over ten seeds.
    """

    POOL = 384
    ROUND_S = 14.8
    # About the 98.5th percentile of the proxy. Whichever of the few heavier
    # pairs a seed drew set op_tail_ms alone.
    PROXY_CAP = 2_000
    # (unknowns, balanced) of the candidates in turn: a quarter are balanced
    # pairs over 3 unknowns, the ones ``cofactor_3vars`` applies to.
    KINDS = ((3, True), (3, False), (4, False), (4, False))

    def __init__(self, lib, seed: int, tiny: bool, tr):
        self.lib = lib
        rng = random.Random(seed)
        pool = 8 if tiny else self.POOL
        cands = []
        while len(cands) < 3 * pool:
            n, balanced = self.KINDS[len(cands) % len(self.KINDS)]
            text, _h = inputs.solved_pair(rng, n, 4, 6, balanced)
            system, names = tr.call("textio.parse_system", lib.textio.parse_system, text)
            E, Ep = system.equations
            dets = [lib.encode.t_det(E, Ep, j, k) for j in range(n) for k in range(j + 1, n)]
            proxy = sum(len(d.terms) ** 2 for d in dets)
            if proxy <= self.PROXY_CAP:
                cands.append((proxy, len(cands), text, system, names))
        self.items = []
        for group in strata(cands, pool):
            for _proxy, _i, text, system, names in group:
                E, Ep = system.equations
                if E != Ep and lib.analysis.bounds(E, Ep).status == "ok":
                    balanced = all(sorted(u) == sorted(v) for u, v in (l.split(" = ") for l in text.splitlines()))
                    self.items.append((system, names, balanced))
                    break
        rng.shuffle(self.items)

    def round(self, r: int):
        return self.items

    def op(self, item, tr):
        system, names, balanced = item
        a, e, p = self.lib.analysis, self.lib.encode, self.lib.poly
        E, Ep = system.equations
        n = system.n
        svecs = (tr.call("encode.s_vector", e.s_vector, E), tr.call("encode.s_vector", e.s_vector, Ep))
        dets = {
            (j, k): tr.call("encode.t_det", e.t_det, E, Ep, j, k)
            for j in range(n) for k in range(j + 1, n)
        }
        per_det = {}
        for (j, k), det in dets.items():
            if not det:
                continue
            tr.count("encode.det_terms", len(det.terms))
            fac = tr.call("poly.binomial_factors", p.binomial_factors, det)
            tr.count("poly.factors_found", sum(m for _, m in fac.factors))
            mins = tr.call("poly.minimal_monomials", p.minimal_monomials, det)
            counts = tr.call("analysis.minimal_count_bounds", a.minimal_count_bounds, E, Ep, j, k)
            per_det[(j, k)] = (fac, mins, counts)
        report = tr.call("analysis.bounds", a.bounds, E, Ep)
        hyper = tr.call("analysis.solution_hyperplanes", a.solution_hyperplanes, E, Ep, names)
        cofactor = None
        if n == 3 and balanced:
            cofactor = tr.call("analysis.cofactor_3vars", a.cofactor_3vars, E, Ep)
        return svecs, dets, per_det, report, hyper, cofactor

    def check(self, item, out) -> None:
        p = self.lib.poly
        system = item[0]
        n = system.n
        svecs, dets, per_det, report, hyper, cofactor = out
        (s1, s2) = svecs
        for (j, k), det in dets.items():
            require(det == s1[j] * s2[k] - s2[j] * s1[k], f"t_det({j},{k}) disagrees with the s-vectors")
        require(per_det, "no nonzero determinant")
        for (j, k), (fac, mins, counts) in per_det.items():
            check_factorization(p, dets[(j, k)], fac)
            count, upper, lower = counts
            require(count == len(mins), "minimal monomial count")
            require(lower == len(fac.hyperplane_factors()) + 1, "lower bound")
            require(lower <= count <= upper, "count outside its bounds")
        nonzero = sorted(per_det)
        require(report.status == "ok", "bounds status")
        require([pr for pr, _ in report.pair_bounds] == nonzero, "bound pairs")
        require(report.best == min([report.sum_bound] + [b for _, b in report.pair_bounds]), "best bound")
        primary = hyper.primary
        require(primary is not None and primary.pair == nonzero[0], "primary pair")
        require(primary.determinant == dets[primary.pair], "primary determinant")
        require(primary.factorization == per_det[primary.pair][0], "primary factorization")
        require(hyper.hyperplanes == primary.factorization.hyperplane_factors(), "hyperplanes")
        if cofactor is not None:
            # (t23, t31, t12) = cofactor * (X - 1, Y - 1, Z - 1), and t31 = -t13.
            for i, det in enumerate((dets[(1, 2)], -dets[(0, 2)], dets[(0, 1)])):
                require(cofactor * (p.MultiPoly.variable(n, i) - p.MultiPoly.one(n)) == det, "cofactor")


def check_factorization(p, det, fac) -> None:
    """Every factor divides ``det`` with its multiplicity and the
    factorization multiplies back to ``det``."""
    require(fac.expand() == det, "factorization does not multiply back")
    for b, m in fac.factors:
        q = det
        for _ in range(m):
            q = p.divide_by_binomial(q, b)
            require(q is not None, f"factor {b} does not divide with multiplicity {m}")


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """verify_bounds at L=6 plus ~50 principal decompositions per op.

    Many small calls on small pairs over 3 unknowns (a search space of
    2,815 candidates at L=6), so per-call fixed costs dominate. The cost of
    ``verify_bounds`` follows the number of candidates it tests, so the pool
    is stratified by it as in ``Factor``: candidates are sorted by that
    number and the middle independent pair of each group of three is kept.
    """

    POOL = 96
    KNOWN = 50
    ROUND_S = 2.3

    def __init__(self, lib, seed: int, tiny: bool, tr):
        self.lib = lib
        rng = random.Random(seed)
        L = 4 if tiny else 6
        self.cfg = lib.search.SearchConfig(L, 2)
        pool = 3 if tiny else self.POOL
        cands = []
        while len(cands) < 3 * pool:
            text, h0 = inputs.solved_pair(rng, 3, 3, 6)
            cands.append((inputs.scanned_candidates(text, L)[L], len(cands), text, h0))
        self.items = []
        for group in strata(cands, pool):
            for _proxy, _i, text, h0 in group:
                parsed = parse_pair(lib, tr, text)
                if parsed is not None:
                    self.items.append(self.with_known(rng, h0, *parsed, 5 if tiny else self.KNOWN))
                    break
        rng.shuffle(self.items)

    def with_known(self, rng, h0, system, names, count):
        """The pair with up to ``count`` of its solutions: ``h0`` and its
        compositions with seeded substitutions of the image letters."""
        unknowns = "".join(names)
        texts = {inputs.morphism_text(h0, unknowns)}
        for _ in range(4 * count):
            if len(texts) >= count:
                break
            theta = inputs.substitution(rng)
            texts.add(inputs.morphism_text({c: inputs.apply(theta, h0[c]) for c in unknowns}, unknowns))
        return system, [self.lib.textio.parse_morphism(t, names) for t in sorted(texts)]

    def round(self, r: int):
        return self.items

    def op(self, item, tr):
        system, known = item
        E, Ep = system.equations
        s, pr, w, e = self.lib.search, self.lib.principal, self.lib.words, self.lib.encode
        vb = tr.call("search.verify_bounds", s.verify_bounds, E, Ep, self.cfg)
        results = []
        for h in known:
            dec = tr.call("principal.principal_decompose", pr.principal_decompose, h, system)
            tr.count("principal.trace_steps", len(dec.trace))
            word = tr.call("words.is_solution", w.is_solution, h, system)
            polys = [tr.call("encode.check_solution_poly", e.check_solution_poly, eq, h) for eq in system]
            results.append((h, dec, word, polys))
        return vb, results

    def check(self, item, out) -> None:
        w = self.lib.words
        system = item[0]
        vb, results = out
        require(vb.ok, f"verify_bounds failed: {vb.counterexample}")
        for h, dec, word, polys in results:
            require(w.compose(dec.theta, dec.g) == h, f"theta . g != h for {h}")
            require(w.is_solution(dec.g, system), f"g does not solve the system for {h}")
            require(not dec.theta.is_erasing(), "theta erases a letter")
            require(word and all(polys), f"word- and polynomial-level checks disagree on {h}")


# ---------------------------------------------------------------------------


class Cli(Workload):
    """One ``python -m weq.cli`` subprocess per op over a fixed command mix."""

    PAIRS = 8
    ROUND_S = 2.1

    def __init__(self, lib, seed: int, tiny: bool, tr):
        self.lib = lib
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        rng = random.Random(seed)
        (ROOT / "bench" / "out").mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=ROOT / "bench" / "out"))
        self.rounds = []
        for i, (text, h0, system, names) in enumerate(seeded_pairs(lib, tr, rng, 2 if tiny else self.PAIRS, 3, 3, 5)):
            E, Ep = system.equations
            det = next(d for j in range(3) for k in range(j + 1, 3) if (d := lib.encode.t_det(E, Ep, j, k)))
            files = {}
            for name, content in (
                ("eqs", text),
                ("h", inputs.morphism_text(h0, "".join(names))),
                ("poly", lib.poly.format_poly(det)),
            ):
                files[name] = str(self.workdir / f"{name}{i}.txt")
                Path(files[name]).write_text(content + "\n", encoding="utf-8")
            eqs = files["eqs"]
            argvs = [
                ["paper-example"],
                ["encode", eqs],
                ["det", eqs],
                ["factor", files["poly"]],
                ["hyperplanes", eqs, "--json"],
                ["bounds", eqs],
                ["principal", eqs, files["h"], "--json"],
                ["search", eqs, "--max-len", "4" if tiny else "8", "--json"],
            ]
            self.rounds.append([tuple(a) for a in argvs])
        self.expected: dict[tuple, object] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def scaler(self) -> speed.Scaler:
        return speed.StartScaler(cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)

    def round(self, r: int):
        return self.rounds[r % len(self.rounds)]

    def op(self, argv, tr):
        proc = tr.call(
            "cli.subprocess",
            subprocess.run,
            [sys.executable, "-m", "weq.cli", *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=150,
        )
        return proc.returncode, proc.stdout

    def check(self, argv, out) -> None:
        code, stdout = out
        require(code == 0, f"{' '.join(argv)} exited with {code}")
        require(stdout.strip() != "", "no output")
        if "--json" in argv:
            if argv not in self.expected:
                self.expected[argv] = self.library_payload(argv)
            require(json.loads(stdout) == self.expected[argv], f"{argv[0]} --json differs from the library")

    def library_payload(self, argv):
        """The payload a ``--json`` command should print, from library calls."""
        lib = self.lib
        system, names = lib.textio.parse_system(Path(argv[1]).read_text(encoding="utf-8"))
        if argv[0] == "hyperplanes":
            payload = lib.analysis.pair_report_json(*system.equations, names)
        elif argv[0] == "principal":
            h = lib.textio.parse_morphism(Path(argv[2]).read_text(encoding="utf-8"), names)
            dec = lib.principal.principal_decompose(h, system)
            payload = {
                "g": [str(im) for im in dec.g.images],
                "theta": [str(im) for im in dec.theta.images],
                "trace": [list(step) for step in dec.trace],
            }
        else:
            cfg = lib.search.SearchConfig(int(argv[argv.index("--max-len") + 1]), 2)
            payload = lib.search.enumerate_solutions(system, cfg).to_json()
        return json.loads(json.dumps(payload))

    def extras(self, tr, rounds: int) -> dict:
        """Interpreter start, import cost and in-process ``main`` on the
        argv lists the traced run used."""

        def spawn(code: str) -> float:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True)
            return time.perf_counter() - t0

        interpreter = statistics.median(spawn("pass") for _ in range(5))
        imported = statistics.median(spawn("import weq.cli") for _ in range(5))
        for r in range(rounds):
            for argv in self.round(r):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tr.call("cli.main", self.lib.cli.main, list(argv))
                require(code == 0, f"in-process {argv[0]} returned {code}")
        return {"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter}


WORKLOADS = {"catalog": Catalog, "factor": Factor, "sweep": Sweep, "cli": Cli}
