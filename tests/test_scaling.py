"""Doubling guards: shapes that were once quadratic must stay about linear.

Wall time is too noisy to gate on, so each guard counts the Python-level
calls (``call`` and ``c_call`` profile events) of one in-process
``cli.run``, after one uncounted warm-up run of the same argv.  The count
is deterministic.  A linear shape reads about x2 per doubling of n and a
quadratic one tends to x4; every doubling must stay below ``BOUND``.
"""

import sys

import pytest

from ftig import cli

SIZES = (125, 250, 500)
BOUND = 2.5


def repeated_listings(n: int) -> str:
    """``architecture A { e : E0, f : F0, e : E1, f : F1, ... }``: n listings
    of each of two entities whose totals grow, closed."""
    lines = ["entity e", "entity f", "motive m", *(f"action a{i}" for i in range(n))]
    for i in range(n):
        lines.append(f"interface E{i} @local {{ f.a{i}(m) }}")
        lines.append(f"interface F{i} @local {{ ~e.a{i}(m) }}")
    members = ", ".join(f"e : E{i}, f : F{i}" for i in range(n))
    lines.append(f"architecture A {{ {members} }}")
    return "\n".join(lines) + "\n"


def conditional_terms(n: int) -> str:
    """One interface summing n one-literal conditionals ``f.a(m) <| c<i> |> 0``."""
    lines = ["entity f", "action a", "motive m", *(f"condition c{i}" for i in range(n))]
    terms = " + ".join(f"f.a(m) <| c{i} |> 0" for i in range(n))
    lines.append(f"interface X @local {{ {terms} }}")
    return "\n".join(lines) + "\n"


def all_unmatched(n: int) -> str:
    """``architecture A { e : E, f : F }`` with ``E = f.a0(m) + ... + f.a<n-1>(m)``
    and ``F = ~e.a0(m) + ...``; ``all_unmatched_log`` sends every action
    with motive ``z``, so each row is unmatched on both sides."""
    lines = ["entity e", "entity f", "motive m", "motive z", *(f"action a{i}" for i in range(n))]
    lines.append(f"interface E @local {{ {' + '.join(f'f.a{i}(m)' for i in range(n))} }}")
    lines.append(f"interface F @local {{ {' + '.join(f'~e.a{i}(m)' for i in range(n))} }}")
    lines.append("architecture A { e : E, f : F }")
    return "\n".join(lines) + "\n"


def all_unmatched_log(n: int) -> str:
    return "".join(f"e,f,a{i},z,T\n" for i in range(n))


def reverse_chain(n: int) -> str:
    """``I<i> = I<i-1> + f.a(m)`` over the leaf ``I0``, declared from
    ``I<n-1>`` down, so each definition is first met through a reference;
    ``architecture A { e : I<n-1>, f : J }`` with ``J = n x ~e.a(m)`` is closed."""
    lines = ["entity e", "entity f", "action a", "motive m"]
    lines += [f"interface I{i} @local {{ I{i - 1} + f.a(m) }}" for i in range(n - 1, 0, -1)]
    lines += ["interface I0 @local { f.a(m) }", f"interface J @local {{ {n} x ~e.a(m) }}",
              f"architecture A {{ e : I{n - 1}, f : J }}"]
    return "\n".join(lines) + "\n"


# shape -> (spec text for size n, event log text for size n or None, the
# command before the file, its exit code)
SHAPES = {
    "repeated_listings": (repeated_listings, None, ("closed", "A"), 0),
    "conditional_terms": (conditional_terms, None, ("check",), 0),
    "all_unmatched": (all_unmatched, all_unmatched_log, ("comply", "A"), 1),
    "reverse_chain": (reverse_chain, None, ("closed", "A"), 0),
}


def counted_run(argv) -> tuple[int, int]:
    """The exit code of ``cli.run(argv)`` and the Python calls it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        code = cli.run(argv)
    finally:
        sys.setprofile(None)
    return code, calls


class TestCallScaling:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_calls_per_doubling(self, shape, tmp_path, capsys):
        write, write_log, command, want = SHAPES[shape]
        counts = []
        for n in SIZES:
            spec = tmp_path / f"{shape}{n}.fti"
            spec.write_text(write(n), encoding="utf-8")
            argv = [*command, str(spec)]
            if write_log is not None:
                log = tmp_path / f"{shape}{n}.csv"
                log.write_text(write_log(n), encoding="utf-8")
                argv += ["--log", str(log)]
            assert cli.run(argv) == want, capsys.readouterr()
            code, calls = counted_run(argv)
            assert code == want
            counts.append(calls)
        ratios = [round(b / a, 2) for a, b in zip(counts, counts[1:])]
        assert all(ratio < BOUND for ratio in ratios), (counts, ratios)
