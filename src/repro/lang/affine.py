"""Integer affine expressions over named symbols.

Array subscripts in the Do-loop DSL are required to be *affine* in the
enclosing loop indices and program parameters — this is the class of
subscripts the paper's analyses (component affinity, dependence vectors,
index-processor mappings) are defined on.

An :class:`Affine` is ``sum(coeff[v] * v) + const`` with integer
coefficients.  Instances are immutable and hashable.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import AffineError


class Affine:
    """An immutable integer affine form ``c0 + sum(ci * vi)``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0) -> None:
        clean: dict[str, int] = {}
        for var, coeff in (coeffs or {}).items():
            if not isinstance(coeff, int):
                raise AffineError(f"coefficient of {var!r} must be int, got {coeff!r}")
            if coeff != 0:
                clean[var] = coeff
        if not isinstance(const, int):
            raise AffineError(f"constant term must be int, got {const!r}")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", const)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Affine is immutable")

    # Immutability makes copies identities; pickling rebuilds from parts.
    def __copy__(self) -> "Affine":
        return self

    def __deepcopy__(self, memo: dict) -> "Affine":
        return self

    def __reduce__(self):
        return (Affine, (dict(self.coeffs), self.const))

    @classmethod
    def _trusted(cls, coeffs: dict[str, int], const: int) -> "Affine":
        """An instance from int parts the algebra itself produced.

        Drops zero coefficients, keeping insertion order, exactly as
        ``__init__`` would, but skips its type checks: so a result equals,
        hashes and pickles like the validated form of the same parts.
        """
        new = object.__new__(cls)
        _set_coeffs(new, {var: coeff for var, coeff in coeffs.items() if coeff})
        _set_const(new, const)
        return new

    # -- constructors -------------------------------------------------
    @staticmethod
    def var(name: str) -> "Affine":
        """The affine form of a single variable."""
        return Affine({name: 1}, 0)

    @staticmethod
    def constant(value: int) -> "Affine":
        """The affine form of an integer constant."""
        return Affine({}, value)

    # -- queries ------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def coeff(self, var: str) -> int:
        """Coefficient of *var* (0 when absent)."""
        return self.coeffs.get(var, 0)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under an integer environment; all variables must bind."""
        total = self.const
        for var, coeff in self.coeffs.items():
            if var not in env:
                raise AffineError(f"unbound variable {var!r} in {self}")
            total += coeff * env[var]
        return total

    def substitute(self, env: Mapping[str, "Affine | int"]) -> "Affine":
        """Substitute variables by affine forms (or ints), leaving others."""
        result = Affine.constant(self.const)
        for var, coeff in self.coeffs.items():
            repl = env.get(var)
            if repl is None:
                result = result + Affine({var: coeff})
            elif isinstance(repl, int):
                result = result + Affine.constant(coeff * repl)
            else:
                result = result + repl * coeff
        return result

    # -- arithmetic ---------------------------------------------------
    def _combine(self, other: "Affine", sign: int) -> "Affine":
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + sign * coeff
        return Affine._trusted(coeffs, self.const + sign * other.const)

    def __add__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            other = Affine.constant(other)
        if not isinstance(other, Affine):
            return NotImplemented
        return self._combine(other, +1)

    __radd__ = __add__

    def __sub__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            other = Affine.constant(other)
        if not isinstance(other, Affine):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: int) -> "Affine":
        return Affine.constant(other) - self

    def __mul__(self, factor: int) -> "Affine":
        if not isinstance(factor, int):
            return NotImplemented
        return Affine._trusted(
            {v: c * factor for v, c in self.coeffs.items()}, self.const * factor
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Affine":
        return self * -1

    # -- identity -----------------------------------------------------
    def _key(self) -> tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_constant and self.const == other
        if not isinstance(other, Affine):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # a constant form equals its int, so it must hash like it too
        return hash(self._key()) if self.coeffs else hash(self.const)

    def __repr__(self) -> str:
        return f"Affine({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for var in sorted(self.coeffs):
            coeff = self.coeffs[var]
            if not parts:
                if coeff == 1:
                    parts.append(var)
                elif coeff == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{coeff}*{var}")
            else:
                sign = "+" if coeff > 0 else "-"
                mag = abs(coeff)
                term = var if mag == 1 else f"{mag}*{var}"
                parts.append(f" {sign} {term}")
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                sign = "+" if self.const > 0 else "-"
                parts.append(f" {sign} {abs(self.const)}")
        return "".join(parts)


_set_coeffs = Affine.coeffs.__set__
_set_const = Affine.const.__set__


def difference_is_constant(a: Affine, b: Affine) -> int | None:
    """Return ``a - b`` as an int when the difference is constant, else None.

    This is the paper's affinity-relation test (§3): two array dimensions
    have an affinity relation when the difference of their subscripts is a
    constant value.
    """
    diff = a - b
    return diff.const if diff.is_constant else None
