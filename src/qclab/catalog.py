"""Built-in charts and the chart configuration file format.

Built-ins: the quaternionic Heisenberg groups for n = 1, 2 and a conformally
deformed variant.  The Heisenberg coframe is

    eta_s = (1/2) dt_s + sum_b (J_s x)_b dx^b

in coordinates (x^1..x^{4n}, t_1, t_2, t_3), with J_s the standard constant
quaternion matrices.  The orientation of the J_s is frozen by a regression
test: structure recovery must return the flat metric and the compatibility
residuals must vanish at machine level.

Configuration files are UTF-8 key-value text with sections (a JSON mirror of
the same schema is accepted); see the README for the grammar.
"""

import configparser
import io
import json
from dataclasses import dataclass

from . import exprlang
from .algebra import standard_triple
from .chart import QCChart, frame_field
from .errors import ChartError, ConfigError, NonPositiveFactor
from .tolerances import DEFAULT_TOLERANCES

SCHEMA_VERSION = 1


def _heisenberg_coeff_strings(n):
    """Coefficient expression strings of the Heisenberg coframe."""
    J = standard_triple(n)
    m = 4 * n + 3
    rows = []
    for s in range(3):
        row = []
        for b in range(4 * n):
            terms = []
            for a in range(4 * n):
                c = J[s][b, a]
                if c == 0.0:
                    continue
                if c == 1.0:
                    terms.append(f"u{a + 1}")
                elif c == -1.0:
                    terms.append(f"-u{a + 1}")
                else:
                    terms.append(f"{c!r}*u{a + 1}")
            row.append(" + ".join(terms).replace("+ -", "- ") if terms else "0")
        for t in range(3):
            row.append("1/2" if t == s else "0")
        rows.append(row)
    return rows


def _parse_rows(rows, m):
    return tuple(tuple(exprlang.parse(text, m) for text in row) for row in rows)


def heisenberg(n):
    """Quaternionic Heisenberg group chart (flat model; torsion-free)."""
    if n not in (1, 2):
        raise ValueError(f"heisenberg chart supports n in {{1, 2}}, got {n}")
    m = 4 * n + 3
    rows = _heisenberg_coeff_strings(n)
    box = tuple((-1.0, 1.0) for _ in range(m))
    return QCChart(n=n, coeffs=_parse_rows(rows, m), domain_box=box,
                   name=f"heisenberg-{n}")


def conformal(base, mu, check_points=20, seed=0):
    """Chart with coframe mu * eta for a positive factor expression mu.

    The factor is required to be positive on the domain box (checked at
    sample points); the deformed chart is validated through the same
    pipeline as any other chart.
    """
    if isinstance(mu, str):
        mu = exprlang.parse(mu, base.m)
    for point in base.sample_points(check_points, seed):
        if exprlang.evaluate(mu, point) <= 0.0:
            raise NonPositiveFactor(
                f"conformal factor is not positive at "
                f"{[float(c) for c in point]}")
    coeffs = tuple(
        tuple(exprlang.Mul(mu, c) for c in row) for row in base.coeffs)
    return QCChart(n=base.n, coeffs=coeffs, domain_box=base.domain_box,
                   name=(base.name + "-conformal") if base.name else "conformal")


def builtin_charts():
    """Catalog entries by name, with a short description and a builder."""
    return {
        "heisenberg-1": {
            "n": 1,
            "description": "quaternionic Heisenberg group, dimension 7 (flat, torsion-free)",
            "build": lambda: heisenberg(1),
        },
        "heisenberg-2": {
            "n": 2,
            "description": "quaternionic Heisenberg group, dimension 11 (flat, torsion-free)",
            "build": lambda: heisenberg(2),
        },
        "heisenberg-1-conformal": {
            "n": 1,
            "description": "heisenberg-1 rescaled by exp(0.2*u1) (torsion present)",
            "build": lambda: conformal(heisenberg(1), "exp(0.2*u1)"),
        },
    }


def get_chart(name):
    entries = builtin_charts()
    if name not in entries:
        raise ConfigError(f"unknown catalog chart {name!r}; "
                          f"known: {', '.join(sorted(entries))}")
    return entries[name]["build"]()


@dataclass
class ChartConfig:
    """Parsed configuration: everything needed to rebuild and validate a
    chart, with coefficient expressions kept as round-trip-stable strings."""

    version: int
    name: str
    n: int
    coords: list
    eta: list                  # 3 lists of m expression strings
    factor: str = ""
    domain: list = None        # m pairs [lo, hi]
    samples: int = 20
    seed: int = 0

    @property
    def m(self):
        return 4 * self.n + 3

    def build_chart(self):
        rows = _parse_rows(self.eta, self.m)
        box = None if self.domain is None else tuple(tuple(b) for b in self.domain)
        chart = QCChart(n=self.n, coeffs=rows, domain_box=box, name=self.name)
        if self.factor:
            chart = conformal(chart, self.factor,
                              check_points=self.samples, seed=self.seed)
            chart = QCChart(n=chart.n, coeffs=chart.coeffs,
                            domain_box=chart.domain_box, name=self.name)
        return chart


def config_from_chart(chart, name=None, samples=20, seed=0):
    m = chart.m
    coords = [f"u{i + 1}" for i in range(m)]
    eta = [[exprlang.to_string(chart.coeffs[s][r]) for r in range(m)]
           for s in range(3)]
    domain = None if chart.domain_box is None else [list(b) for b in chart.domain_box]
    return ChartConfig(version=SCHEMA_VERSION, name=name or chart.name or "chart",
                       n=chart.n, coords=coords, eta=eta, factor="",
                       domain=domain, samples=samples, seed=seed)


def _config_from_mapping(data, where):
    def need(key):
        if key not in data:
            raise ConfigError(f"missing field {key!r}", location=where)
        return data[key]

    version = int(need("version"))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version}", location=where)
    n = int(need("n"))
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}", location=where)
    m = 4 * n + 3
    coords = list(need("coords"))
    if len(coords) != m:
        raise ConfigError(f"coords must list {m} names (m = 4n+3), got {len(coords)}",
                          location=where)
    eta = []
    for s in (1, 2, 3):
        row = list(need(f"eta{s}"))
        if len(row) != m:
            raise ConfigError(f"eta{s} must have {m} entries, got {len(row)}",
                              location=f"{where}:eta{s}")
        for k, text in enumerate(row):
            try:
                exprlang.parse(text, m)
            except Exception as exc:
                raise ConfigError(f"bad expression {text!r}: {exc}",
                                  location=f"{where}:eta{s}[{k}]")
        eta.append([str(x) for x in row])
    factor = str(data.get("factor", "") or "")
    if factor:
        try:
            exprlang.parse(factor, m)
        except Exception as exc:
            raise ConfigError(f"bad factor expression: {exc}",
                              location=f"{where}:factor")
    domain = data.get("domain")
    if domain is not None:
        domain = [list(map(float, pair)) for pair in domain]
        if len(domain) != m:
            raise ConfigError(f"domain must have {m} ranges", location=where)
        for pair in domain:
            if len(pair) != 2 or not pair[0] <= pair[1]:
                raise ConfigError(f"bad domain range {pair}", location=where)
    samples = int(data.get("samples", 20))
    seed = int(data.get("seed", 0))
    return ChartConfig(version=version, name=str(need("name")), n=n,
                       coords=[str(c) for c in coords], eta=eta, factor=factor,
                       domain=domain, samples=samples, seed=seed)


def _split_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_ini(text, where):
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}", location=where)
    if not cp.has_section("chart"):
        raise ConfigError("missing [chart] section", location=where)
    data = {}
    for key in ("version", "name", "n", "factor"):
        if cp.has_option("chart", key):
            data[key] = cp.get("chart", key)
    if cp.has_option("chart", "coords"):
        data["coords"] = _split_list(cp.get("chart", "coords"))
    if cp.has_section("eta"):
        for s in (1, 2, 3):
            if cp.has_option("eta", f"eta{s}"):
                data[f"eta{s}"] = _split_list(cp.get("eta", f"eta{s}"))
    if cp.has_section("domain") and cp.has_option("domain", "box"):
        pairs = []
        for item in _split_list(cp.get("domain", "box")):
            bits = item.split(":")
            if len(bits) != 2:
                raise ConfigError(f"bad domain entry {item!r} (expected lo:hi)",
                                  location=f"{where}:[domain]")
            pairs.append([float(bits[0]), float(bits[1])])
        data["domain"] = pairs
    if cp.has_section("sampling"):
        if cp.has_option("sampling", "samples"):
            data["samples"] = cp.get("sampling", "samples")
        if cp.has_option("sampling", "seed"):
            data["seed"] = cp.get("sampling", "seed")
    return _config_from_mapping(data, where)


def load_config(path, validate=True, tol=DEFAULT_TOLERANCES):
    """Load a chart configuration (INI-style sections or the JSON mirror),
    build the chart, and (unless disabled) validate it at the declared
    sample points.  Validation failures name the failing invariant and the
    point."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse JSON: {exc}", location=path)
        config = _config_from_mapping(data, path)
    else:
        config = _load_ini(text, path)

    chart = config.build_chart()
    if validate:
        validate_chart(chart, config.samples, config.seed, tol)
    return chart, config


def validate_chart(chart, samples, seed, tol=DEFAULT_TOLERANCES):
    """Run structure recovery, the Reeb solve and the frame invariants at
    sampled points; raises the first failure."""
    for point in chart.sample_points(samples, seed):
        fr = frame_field(chart, point, tol=tol)
        residuals, bad = fr.check(tol)
        if bad:
            name, value = next(iter(bad.items()))
            raise ChartError(f"frame invariant {name!r} failed", point=point,
                             residual=value)


def save_config(chart_or_config, path):
    """Write a configuration file; format chosen by extension (.json for the
    JSON mirror, anything else for the sectioned text format)."""
    config = (chart_or_config if isinstance(chart_or_config, ChartConfig)
              else config_from_chart(chart_or_config))
    if path.endswith(".json"):
        payload = {
            "version": config.version, "name": config.name, "n": config.n,
            "coords": config.coords,
            "eta1": config.eta[0], "eta2": config.eta[1], "eta3": config.eta[2],
            "factor": config.factor,
            "domain": config.domain, "samples": config.samples,
            "seed": config.seed,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        out = io.StringIO()
        out.write("[chart]\n")
        out.write(f"version = {config.version}\n")
        out.write(f"name = {config.name}\n")
        out.write(f"n = {config.n}\n")
        out.write(f"coords = {', '.join(config.coords)}\n")
        if config.factor:
            out.write(f"factor = {config.factor}\n")
        out.write("\n[eta]\n")
        for s in range(3):
            out.write(f"eta{s + 1} = {', '.join(config.eta[s])}\n")
        if config.domain is not None:
            out.write("\n[domain]\n")
            out.write("box = " + ", ".join(f"{lo}:{hi}" for lo, hi in config.domain) + "\n")
        out.write("\n[sampling]\n")
        out.write(f"samples = {config.samples}\n")
        out.write(f"seed = {config.seed}\n")
        text = out.getvalue()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
