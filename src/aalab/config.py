"""Flat key/value scenario configs with dotted sections.

A scenario file is plain text: one ``section.key = value`` per line, ``#``
comments, blank lines ignored.  Every key can be overridden from the
environment through the prefix ``AALAB_`` with the dot spelled as a double
underscore (``AALAB_SOLVER__T=2.0`` overrides ``solver.T``); an ``AALAB_``
variable that names no key is rejected, as an unknown file key is.  The effective
key/value map is echoed verbatim into every output manifest so results stay
reproducible from their artifacts alone.
"""

from dataclasses import dataclass
from importlib import resources
import os

from .signals import SpikeTrainSpec
from .solver import ForcingSpec, SolverConfig, make_nonlinearity, reference_initial_field
from .spectral import SpectralBasis


class ConfigError(ValueError):
    """Malformed scenario file or unknown key/value."""


DEFAULTS = {
    "basis.L": "1.0",
    "basis.K": "64",
    "basis.N": "256",
    "solver.dt": "1e-3",
    "solver.T": "1.0",
    "solver.picard_tol": "1e-10",
    "solver.picard_max_iter": "25",
    "solver.forcing_nodes": "8",
    "solver.cap": "1e6",
    "solver.order2": "false",
    "nonlinearity.id": "cubic",
    "forcing.temporal": "none",
    "forcing.profile": "mode1",
    "forcing.nmax": "4",
    "forcing.boundary": "profiled",
    "initial.profile": "mode1",
    "initial.amplitude": "1.0",
    "output.dir": "out/run",
}

ENV_PREFIX = "AALAB_"


def parse_config_text(text):
    """Parse flat dotted key = value lines into a dict of strings."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys use dotted sections, got {key!r}")
        out[key] = value
    return out


def apply_env_overrides(values, environ=None):
    """Override ``values`` from the ``AALAB_`` variables of ``environ``; a
    variable that names no key is a ConfigError, as a file key is."""
    environ = os.environ if environ is None else environ
    keys = {ENV_PREFIX + key.upper().replace(".", "__"): key for key in values}
    for env_name in sorted(environ):
        if not env_name.startswith(ENV_PREFIX):
            continue
        if env_name not in keys:
            raise ConfigError(f"environment variable {env_name} names no config key")
        values[keys[env_name]] = environ[env_name]
    return values


def builtin_config_path(name):
    """Path of a bundled scenario (``decay``, ``reference``, ``blowup``)."""
    ref = resources.files("aalab").joinpath("configs", f"{name}.cfg")
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(ref)


def _as_bool(raw, key):
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


@dataclass
class Scenario:
    """Typed view of a scenario config plus the raw echoed key/values."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def _float(self, key):
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {self.values[key]!r}") from exc

    def _int(self, key):
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {self.values[key]!r}") from exc

    # builders -------------------------------------------------------------

    def basis(self):
        return SpectralBasis(length=self._float("basis.L"), modes=self._int("basis.K"),
                             grid=self._int("basis.N"))

    def solver_config(self):
        return SolverConfig(
            dt=self._float("solver.dt"),
            horizon=self._float("solver.T"),
            picard_tol=self._float("solver.picard_tol"),
            picard_max_iter=self._int("solver.picard_max_iter"),
            forcing_nodes=self._int("solver.forcing_nodes"),
            blowup_cap=self._float("solver.cap"),
            order2=_as_bool(self.values["solver.order2"], "solver.order2"),
        )

    def nonlinearity(self):
        try:
            return make_nonlinearity(self.values["nonlinearity.id"])
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc

    def forcing(self, basis):
        temporal = self.values["forcing.temporal"]
        profile_id = self.values["forcing.profile"]
        if temporal == "none":
            return ForcingSpec(basis)
        if profile_id == "none":
            raise ConfigError("forcing.profile must be set when forcing.temporal is not none")
        profile = reference_initial_field(basis, profile_id, 1.0)
        boundary = self.values["forcing.boundary"]
        if temporal == "reference":
            spike = SpikeTrainSpec(n_max=self._int("forcing.nmax"))
            return ForcingSpec.reference(basis, profile, spike, boundary_mode=boundary)
        if temporal.startswith("const:"):
            from .signals import constant_signal
            return ForcingSpec.modulated(basis, constant_signal(float(temporal[6:])), profile)
        raise ConfigError(f"forcing.temporal: unknown value {temporal!r}")

    def initial_field(self, basis):
        try:
            return reference_initial_field(basis, self.values["initial.profile"],
                                           self._float("initial.amplitude"))
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc


def load_scenario(path, environ=None):
    """Read a scenario file, fill defaults, apply environment overrides."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_config_text(fh.read())
    unknown = set(parsed) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = dict(DEFAULTS)
    values.update(parsed)
    apply_env_overrides(values, environ)
    return Scenario(values=values)
