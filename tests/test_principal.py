import random
from itertools import product

import pytest

from weq.principal import PrincipalDecomposition, _require, principal_decompose
from weq.search import random_equation_solved_by, random_morphism
from weq.textio import parse_morphism, parse_system
from weq.words import EqSystem, Equation, Morphism, Word, compose, is_solution, rank

from conftest import eq, eq_n, is_letter_renaming, is_trivial, morph, nonerasing_morphism, reference_is_solution


def reference_principal(h: Morphism, system: EqSystem) -> PrincipalDecomposition:
    """The reduction with the rewritten sides kept as a third copy of the
    state and the two expand cases written out; oracle for
    ``principal_decompose``."""
    n = system.n
    if h.domain_size != n:
        raise ValueError(f"morphism has {h.domain_size} images, system has {n} unknowns")
    if not reference_is_solution(h, system):
        raise ValueError("the morphism is not a solution of the system")

    trace: list[tuple] = []
    # Letters of the intermediate principal solution are the unknown
    # indices that are still alive; g_imgs maps original unknowns to
    # words over those letters.
    g_imgs: list[list[int]] = [[i] for i in range(n)]
    h_img: dict[int, Word] = {}
    alive: set[int] = set()
    for i in range(n):
        if h.images[i]:
            h_img[i] = h.images[i]
            alive.add(i)
        else:
            g_imgs[i] = []
            trace.append(("erase", i))
    sides: list[tuple[list[int], list[int]]] = [
        (
            [s for s in e.left if s in alive],
            [s for s in e.right if s in alive],
        )
        for e in system
    ]

    def measure() -> int:
        return len(alive) + sum(len(w) for w in h_img.values())

    def substitute(letter: int, replacement: list[int]) -> None:
        for idx, (u, v) in enumerate(sides):
            sides[idx] = (
                [c for s in u for c in (replacement if s == letter else [s])],
                [c for s in v for c in (replacement if s == letter else [s])],
            )
        for idx, gi in enumerate(g_imgs):
            g_imgs[idx] = [c for s in gi for c in (replacement if s == letter else [s])]

    while True:
        mismatch = next(((u, v) for u, v in sides if u != v), None)
        if mismatch is None:
            break
        before = measure()
        u, v = mismatch
        j = next(i for i in range(min(len(u), len(v)) + 1) if i >= len(u) or i >= len(v) or u[i] != v[i])
        # A non-erasing solution cannot make one side a proper prefix of
        # the other.
        _require(j < len(u) and j < len(v), "side exhausted under a non-erasing solution")
        x, y = u[j], v[j]
        hx, hy = h_img[x], h_img[y]
        if len(hx) < len(hy):
            _require(hy.symbols[: len(hx)] == hx.symbols, "shorter image is not a prefix")
            h_img[y] = Word(hy.symbols[len(hx):])
            substitute(y, [x, y])
            trace.append(("expand", x, y))
        elif len(hx) > len(hy):
            _require(hx.symbols[: len(hy)] == hy.symbols, "shorter image is not a prefix")
            h_img[x] = Word(hx.symbols[len(hy):])
            substitute(x, [y, x])
            trace.append(("expand", y, x))
        else:
            _require(hx == hy, "equal-length images differ")
            del h_img[y]
            alive.discard(y)
            substitute(y, [x])
            trace.append(("merge", y, x))
        _require(measure() < before, "termination measure failed to decrease")

    order = list(dict.fromkeys(c for gi in g_imgs for c in gi))
    _require(set(order) == alive, "letters of g differ from the surviving unknowns")
    remap = {old: new for new, old in enumerate(order)}
    g = Morphism(tuple(Word(tuple(remap[c] for c in gi)) for gi in g_imgs), len(order))
    theta = Morphism(tuple(h_img[c] for c in order), h.target_alphabet_size)
    return PrincipalDecomposition(g, theta, tuple(trace))


def divisor_through(gp: Morphism, g: Morphism) -> Morphism | None:
    """A non-erasing theta' with compose(theta', gp) == g, found by splitting
    each image of g into nonempty chunks consistent with the letters already
    fixed; None when the splits fail."""
    theta_imgs: list[tuple[int, ...] | None] = [None] * gp.target_alphabet_size
    for gim, im in zip(gp.images, g.images):
        # split im into len(gim) nonempty chunks consistent with known letters
        def fit(pos: int, idx: int) -> bool:
            if idx == len(gim):
                return pos == len(im)
            letter = gim[idx]
            if theta_imgs[letter] is not None:
                chunk = theta_imgs[letter]
                if im.symbols[pos : pos + len(chunk)] != chunk:
                    return False
                return fit(pos + len(chunk), idx + 1)
            for clen in range(1, len(im) - pos + 1):
                theta_imgs[letter] = im.symbols[pos : pos + clen]
                if fit(pos + clen, idx + 1):
                    return True
                theta_imgs[letter] = None
            return False

        if not fit(0, 0):
            return None
    if any(t is None for t in theta_imgs):
        return None
    theta = Morphism(tuple(Word(t) for t in theta_imgs), g.target_alphabet_size)
    return theta if compose(theta, gp) == g else None


def all_divisor_candidates(g: Morphism):
    """Every (g', theta') with theta' non-erasing and compose(theta', g') == g.

    Enumerates candidate image splits directly; feasible only for tiny g.
    Reference for ``canonical_divisor_candidates``.
    """
    total = sum(len(im) for im in g.images)
    # candidate letter counts for g'
    for m in range(1, total + 1):
        # images of g' over letters 0..m-1, lengths <= lengths of g images
        pools = []
        for im in g.images:
            opts = []
            for length in range(0 if not im else 1, len(im) + 1):
                opts.extend(product(range(m), repeat=length))
            pools.append(opts)
        for images in product(*pools):
            gp = Morphism(tuple(Word(w) for w in images), m)
            if set(range(m)) != set().union(*gp.images):
                continue
            theta = divisor_through(gp, g)
            if theta is not None:
                yield gp, theta


def restricted_growth_strings(length: int):
    """Words of the given length over 0, 1, ... in which each letter first
    occurs after every smaller one: one word per partition of the cells."""

    def extend(prefix: list[int], used: int):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for a in range(used + 1):
            prefix.append(a)
            yield from extend(prefix, max(used, a + 1))
            prefix.pop()

    yield from extend([], 0)


def canonical_divisor_candidates(g: Morphism):
    """The candidates of ``all_divisor_candidates`` whose g' names its
    letters in first-occurrence order.

    Renaming the letters of g', and those of theta' to match, preserves
    compose(theta', g') == g, "g' is a solution" and "theta' is a letter
    renaming", so these candidates decide minimality. Used as an
    independence oracle for minimality.
    """
    for lt in product(*(range(0 if not im else 1, len(im) + 1) for im in g.images)):
        for cells in restricted_growth_strings(sum(lt)):
            if not cells:
                continue
            cuts = [sum(lt[:j]) for j in range(len(lt) + 1)]
            gp = Morphism(tuple(Word(cells[a:b]) for a, b in zip(cuts, cuts[1:])), max(cells) + 1)
            theta = divisor_through(gp, g)
            if theta is not None:
                yield gp, theta


def assert_principal_by_bruteforce(g: Morphism, T: EqSystem) -> None:
    """No solution divides g except through a renaming."""
    assert is_solution(g, T)
    for gp, theta in canonical_divisor_candidates(g):
        if is_solution(gp, T) and not is_letter_renaming(theta):
            raise AssertionError(f"{g} is divisible by the solution {gp} via {theta}")


class TestIsTrivial:
    def test_identical_sides(self):
        assert is_trivial(EqSystem((eq("xy", "xy"),)))

    def test_conjugacy_not_trivial(self):
        assert not is_trivial(EqSystem((eq("xz", "zy"),)))

    def test_one_nontrivial_member(self):
        T = EqSystem((eq_n("xy", "xy", 3), eq("xz", "zy")))
        assert not is_trivial(T)


class TestExamples:
    def test_commutation_powers(self):
        T = EqSystem((eq("xy", "yx"),))
        h = morph("abab", "ab")
        dec = principal_decompose(h, T)
        assert dec.g == morph("aa", "a")
        assert dec.theta == Morphism((Word.from_letters("ab"),), 2)
        assert compose(dec.theta, dec.g) == h
        assert_principal_by_bruteforce(dec.g, T)

    def test_trivial_system_identity(self):
        T = EqSystem((eq("xy", "xy"),))
        h = morph("ab", "ba")
        dec = principal_decompose(h, T)
        assert dec.g == morph("a", "b")
        assert dec.theta == h
        assert rank(dec.g) == 2

    def test_conjugacy_already_principal(self):
        T = EqSystem((eq("xz", "zy"),))
        h = morph("ab", "ba", "aba")
        dec = principal_decompose(h, T)
        assert dec.g == h
        assert is_letter_renaming(dec.theta)
        assert rank(h) == 2 == len(set().union(*h.images))
        assert_principal_by_bruteforce(dec.g, T)

    def test_canonical_candidates_are_the_canonical_reference_ones(self):
        # every g with total image length <= 4 over <= 2 letters
        named_in_order = lambda gp: list(dict.fromkeys(c for im in gp.images for c in im)) == list(
            range(gp.target_alphabet_size)
        )
        checked = 0
        for n in (1, 2, 3):
            for k in (1, 2):
                for lt in product(range(5), repeat=n):
                    if sum(lt) > 4:
                        continue
                    for images in product(*(product(range(k), repeat=l) for l in lt)):
                        g = Morphism(tuple(Word(im) for im in images), k)
                        new = list(canonical_divisor_candidates(g))
                        old = [(gp, th) for gp, th in all_divisor_candidates(g) if named_in_order(gp)]
                        assert len(new) == len(set(new))
                        assert set(new) == set(old), g
                        checked += 1
        assert checked == 566

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            principal_decompose(morph("a", "b", "a"), EqSystem((eq("xz", "zy"),)))
        # a morphism with fewer images than the system has unknowns
        with pytest.raises(ValueError, match="2 images but the system uses 3 unknowns"):
            principal_decompose(morph("a", "b"), EqSystem((eq("xz", "zy"),)))

    def test_erasing_images_pass_through(self):
        T = EqSystem((eq("xzy", "zyx"),))
        h = Morphism((Word.from_letters("ab"), Word(), Word.from_letters("ab")), 2)
        assert is_solution(h, T)
        dec = principal_decompose(h, T)
        assert not dec.g.images[1]
        assert compose(dec.theta, dec.g) == h


def solved_system_instances(rng: random.Random, count: int):
    """Yield (system, solution) pairs whose unknowns all occur in the system."""
    made = 0
    while made < count:
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        h = random_morphism(rng, n, k, 4)
        eqs = [random_equation_solved_by(rng, h, 5) for _ in range(rng.randint(1, 3))]
        covered = set()
        for E in eqs:
            covered |= {*E.left, *E.right}
        if covered != set(range(n)):
            continue
        T = EqSystem(tuple(eqs))
        assert is_solution(h, T)
        made += 1
        yield T, h


class TestFuzz:
    def _instances(self, rng, count):
        return solved_system_instances(rng, count)

    def test_roundtrip_and_rank_invariants(self, rng):
        for T, h in self._instances(rng, 300):
            dec = principal_decompose(h, T)
            assert compose(dec.theta, dec.g) == h
            assert is_solution(dec.g, T)
            assert rank(dec.g) == len(set().union(*dec.g.images))
            assert rank(h) <= rank(dec.g)
            if not is_trivial(T):
                assert len(set().union(*dec.g.images)) < T.n

    def test_idempotent_on_principal(self, rng):
        for T, h in self._instances(rng, 150):
            g = principal_decompose(h, T).g
            again = principal_decompose(g, T)
            assert again.g == g
            assert is_letter_renaming(again.theta)

    def test_deterministic_in_length_type(self, rng):
        for T, h in self._instances(rng, 150):
            dec = principal_decompose(h, T)
            # another solution with the same length type: permute target
            # letters in the substitution part
            k = dec.theta.target_alphabet_size
            if k < 2:
                continue
            perm = list(range(k))
            rng.shuffle(perm)
            theta2 = Morphism(
                tuple(Word(tuple(perm[s] for s in im)) for im in dec.theta.images), k
            )
            h2 = compose(theta2, dec.g)
            assert is_solution(h2, T)
            assert h2.length_type() == h.length_type()
            dec2 = principal_decompose(h2, T)
            assert dec2.g == dec.g
            assert dec2.theta.length_type() == dec.theta.length_type()


def failing_equations(system: EqSystem, trace) -> list[int]:
    """Index of the first equation that g does not solve before each
    expand or merge step of ``trace``, found by replaying the steps on g
    from the identity."""
    g = [[i] for i in range(system.n)]
    image = lambda w: [c for s in w for c in g[s]]
    out = []
    for kind, *letters in trace:
        if kind == "erase":
            g[letters[0]] = []
            continue
        out.append(next(i for i, e in enumerate(system) if image(e.left) != image(e.right)))
        (s, t), replacement = (letters, letters) if kind == "expand" else (letters[::-1], letters[1:])
        g = [[c for a in gi for c in (replacement if a == t else [a])] for gi in g]
    assert all(image(e.left) == image(e.right) for e in system)
    return out


def staged_systems(rng: random.Random, count: int):
    """Yield (system, solution) pairs of 3-6 equations, none with identical
    sides, that the solution solves, sorted by the length of their sides, so that the first are
    solved after a few steps and the last fails longest."""
    made = 0
    while made < count:
        n = rng.randint(2, 4)
        h = nonerasing_morphism(rng, n, rng.randint(1, 3), 5)
        drawn = (random_equation_solved_by(rng, h, rng.randint(2, 6)) for _ in range(6))
        eqs = [E for E in drawn if E.left != E.right]
        if len(eqs) < 3:
            continue
        made += 1
        yield EqSystem(tuple(sorted(eqs, key=lambda E: E.size))), h


class TestResumedScan:
    """The equations are solved in order, one at a time: an equation that
    g solves stays solved under every substitution, so the steps never go
    back to an earlier one. The result is still exactly the reference's."""

    def test_failing_equation_moves_forward_twice(self):
        T = EqSystem((eq_n("xy", "yx", 4), eq_n("yz", "zy", 4), Equation(Word((2, 3)), Word((3, 2)), 4)))
        h = morph("aa", "a", "aaa", "aaaaa")
        dec = principal_decompose(h, T)
        assert dec == reference_principal(h, T)
        failing = failing_equations(T, dec.trace)
        assert failing == sorted(failing) and sorted(set(failing)) == [0, 1, 2]

    def test_seeded_staged_systems(self):
        moved_twice = 0
        for T, h in staged_systems(random.Random(21), 400):
            dec = principal_decompose(h, T)
            assert dec == reference_principal(h, T), (T, h)
            failing = failing_equations(T, dec.trace)
            assert failing == sorted(failing), (T, h)
            moved_twice += len(set(failing)) >= 3
        assert moved_twice >= 50


class TestAgainstReference:
    """``principal_decompose`` returns exactly what ``reference_principal``
    returns: the same g, theta and step-by-step trace."""

    def test_seeded_solved_systems(self):
        kinds = set()
        erasing = multi = 0
        for T, h in solved_system_instances(random.Random(6), 2000):
            dec = principal_decompose(h, T)
            assert dec == reference_principal(h, T), (T, h)
            kinds |= {step[0] for step in dec.trace}
            erasing += not all(h.images)
            multi += len(T) > 1
        assert kinds == {"erase", "expand", "merge"}
        assert erasing > 100 and multi > 100

    @pytest.mark.parametrize("sides", [6, 12])
    def test_seeded_systems_beyond_26_unknowns(self, sides):
        """Unknown i is the character chr(i) inside the reduction, so 27 to
        40 unknowns take it past the 26 letters a-z and through the control
        characters below space up to space and punctuation."""
        rng = random.Random(39)
        steps = 0
        letters = set()
        for _ in range(300):
            h = random_morphism(rng, rng.randint(27, 40), rng.randint(1, 3), 4)
            T = EqSystem(tuple(random_equation_solved_by(rng, h, sides) for _ in range(rng.randint(1, 3))))
            dec = principal_decompose(h, T)
            assert dec == reference_principal(h, T), (T, h)
            moves = [step for step in dec.trace if step[0] != "erase"]
            steps += len(moves)
            letters |= {c for step in moves for c in step[1:]}
        assert steps > 2000
        # letters 26 to 31 lie past a-z and below space
        assert any(26 <= c < 32 for c in letters) and max(letters) >= 32

    @pytest.mark.parametrize("left_longer", [True, False])
    def test_commutation_powers_up_to_200(self, left_longer):
        T = EqSystem((eq("xy", "yx"),))
        for N in range(1, 201):
            h = morph("a" * N, "a") if left_longer else morph("a", "a" * N)
            dec = principal_decompose(h, T)
            assert dec == reference_principal(h, T), N
            assert len(dec.trace) == N


def runs(trace) -> list[int]:
    """Lengths of the maximal blocks of equal consecutive expand steps."""
    out: list[int] = []
    for k, step in enumerate(trace):
        if step[0] == "expand":
            if k and trace[k - 1] == step:
                out[-1] += 1
            else:
                out.append(1)
    return out


def euclid_runs(p: int, q: int) -> list[int]:
    """The runs of the reduction of xy = yx under (a^p, a^q): the quotients
    of Euclid's algorithm on (p, q), the last one less the merge that ends
    it, without the empty ones."""
    quotients = []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    quotients[-1] -= 1
    return [r for r in quotients if r]


class TestRuns:
    """Consecutive expand steps of one pair are held as one pending run and
    applied to g and h at once; whichever way a run ends, the result is
    exactly the reference's."""

    COMMUTATION = EqSystem((eq("xy", "yx"),))

    @pytest.mark.parametrize("left_longer", [True, False])
    def test_consecutive_fibonacci_lengths_make_runs_of_one(self, left_longer):
        """Each expand step is followed by one of another pair, so every run
        ends after one step, applied before the next."""
        p, q, checked = 2, 1, 0
        while p <= 610:
            h = morph("a" * p, "a" * q) if left_longer else morph("a" * q, "a" * p)
            dec = principal_decompose(h, self.COMMUTATION)
            assert dec == reference_principal(h, self.COMMUTATION), (p, q)
            assert runs(dec.trace) == [1] * (len(dec.trace) - 1) == euclid_runs(p, q), (p, q)
            p, q, checked = p + q, p, checked + 1
        assert checked == 13

    @pytest.mark.parametrize("p, q", [(1000, 7), (7, 1000), (999, 10), (500, 3), (301, 300), (97, 13), (360, 96)])
    def test_long_runs_end_in_a_remainder(self, p, q):
        """A run of p // q steps ends where the remainder is shorter than
        the cut image: the next step is of the other pair, or a merge."""
        h = morph("a" * p, "a" * q)
        dec = principal_decompose(h, self.COMMUTATION)
        assert dec == reference_principal(h, self.COMMUTATION)
        assert runs(dec.trace) == euclid_runs(max(p, q), min(p, q))

    @pytest.mark.parametrize(
        "system, h, run",
        [
            ("xz = zx\nyz = zy", "x = a\ny = a\nz = aaaaa", 4),
            ("xy = yx\nxz = zx", "x = a\ny = aaa\nz = aaaa", 2),
            ("xy = yx\nyz = zy", "x = ab\ny = abababab\nz = ababab", 3),
            ("xy = yx\nxyz = zyx", "x = ba\ny = bababa\nz = babababa", 2),
        ],
        ids=["xz-zx-then-yz-zy", "xy-yx-then-xz-zx", "xy-yx-then-yz-zy", "xy-yx-then-xyz-zyx"],
    )
    def test_run_pending_until_the_merge_that_solves_an_equation(self, system, h, run):
        """The first equation's last run is pending until the merge that
        solves it, and the second equation still needs steps."""
        T, names = parse_system(system)
        hm = parse_morphism(h, names)
        dec = principal_decompose(hm, T)
        assert dec == reference_principal(hm, T)
        moves = [step for step in dec.trace if step[0] != "erase"]
        failing = failing_equations(T, dec.trace)
        solving = failing.index(1) - 1
        assert moves[solving][0] == "merge"
        assert moves[solving - run : solving] == [moves[solving - 1]] * run and moves[solving - 1][0] == "expand"
        assert solving - run == 0 or moves[solving - run - 1] != moves[solving - 1]

    def test_each_equation_is_solved_by_a_merge(self):
        """An expand step is an injective substitution, so only a merge can
        solve an equation; the merge applies the pending run first, so no
        run is pending from one equation to the next."""
        solved = 0
        for T, h in staged_systems(random.Random(41), 300):
            dec = principal_decompose(h, T)
            moves = [step for step in dec.trace if step[0] != "erase"]
            failing = failing_equations(T, dec.trace)
            for k, i in enumerate(failing):
                if k + 1 == len(failing) or failing[k + 1] != i:
                    assert moves[k][0] == "merge", (T, h)
                    solved += 1
        assert solved > 500

    @pytest.mark.parametrize("N", [2, 3, 5, 10**5])
    def test_commutation_closed_form(self, N):
        """xy = yx under (a^N, a): N - 1 expand steps of one run, then the
        merge; no timing is asserted, but the quadratic reduction took
        minutes at N = 10^5."""
        h = morph("a" * N, "a")
        dec = principal_decompose(h, self.COMMUTATION)
        assert dec.g == h
        assert dec.theta == morph("a")
        assert dec.trace == (("expand", 1, 0),) * (N - 1) + (("merge", 1, 0),)
        if N < 10:
            assert dec == reference_principal(h, self.COMMUTATION)
