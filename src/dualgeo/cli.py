"""Command-line surface: spec-file ingestion, command dispatch, report emission.

Spec files are JSON documents; expressions are strings in the expression
grammar.  Exit codes: 0 all checks pass, 1 check failures, 2 input or usage
errors.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .exprlang import DomainError, ParseError
from .geometry import GeometryError, ManifoldSpec, SingularMetricError, validate_metric
from .connections import (ConnectionField, conjugate, duality_residual,
                          explicit_connection, involution_defect, is_statistical)
from .curvature import curvature_report
from .products import (ProductSpec, _max_abs, block_levi_civita_defect,
                       curvature_block_report, lift_lemma_residual, mixed_ricci_table,
                       mixed_weyl_report, separability_test, twisted_product)
from .dualistic import (ConjugacyError, TheoremRecord, dually_flat_verdict, induce_on_product,
                        make_dualistic, reduction_chain, theorem41_analyze, theorem42_analyze,
                        theorem43_analyze)
from .report import RunConfig, VerificationReport, jsonable, sha256_of
from .verify import (CURVATURE_BLOCK_IDS, MIXED_WEYL_DISPLAY_IDS, Checks, inverse_defect,
                     verify_paper)

__all__ = ["main", "load_spec", "LoadedManifold", "LoadedProduct", "SpecFileError"]


class SpecFileError(ValueError):
    """Spec document violates the schema."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


@dataclass(eq=False)
class LoadedManifold:
    manifold: ManifoldSpec
    connection: ConnectionField
    dual_connection: ConnectionField | None
    digest: str


@dataclass(eq=False)
class LoadedProduct:
    product: ProductSpec
    base: LoadedManifold
    fiber: LoadedManifold
    digest: str


def _require(doc: dict, field: str, kind, where: str):
    if not isinstance(doc, dict):
        raise SpecFileError(where, "expected an object")
    if field not in doc:
        raise SpecFileError(f"{where}.{field}", "missing required field")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise SpecFileError(f"{where}.{field}", f"expected {kind.__name__}")
    return value


def _parse_connection(doc, M: ManifoldSpec, where: str) -> ConnectionField:
    kind = _require(doc, "kind", str, where)
    if kind == "levi-civita":
        return M.levi_civita_connection
    if kind == "explicit":
        gamma_doc = doc.get("gamma", {})
        if not isinstance(gamma_doc, dict):
            raise SpecFileError(f"{where}.gamma", "expected an object of 'k,i,j' entries")
        entries = {}
        for key, src in gamma_doc.items():
            try:
                k, i, j = (int(part) for part in key.split(","))
            except ValueError:
                raise SpecFileError(f"{where}.gamma[{key!r}]",
                                    "key must be 'k,i,j' with integer indices") from None
            entries[(k, i, j)] = str(src)
        try:
            C = explicit_connection(M, entries)
            C._gamma(M.sample_array(32, 7))  # the metric's samples, kept on no stream of C
        except (ValueError, DomainError) as exc:
            raise SpecFileError(f"{where}.gamma", str(exc)) from exc
        return C
    raise SpecFileError(f"{where}.kind", f"unknown connection kind {kind!r}")


def _load_manifold_doc(doc: dict, where: str, digest: str) -> LoadedManifold:
    name = _require(doc, "name", str, where)
    coords = _require(doc, "coords", list, where)
    domain = _require(doc, "domain", list, where)
    metric = _require(doc, "metric", list, where)
    try:
        M = ManifoldSpec.from_strings(name, coords, [tuple(iv) for iv in domain],
                                      [[str(e) for e in row] for row in metric])
    except ParseError as exc:
        raise SpecFileError(f"{where}.metric", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise SpecFileError(where, str(exc)) from exc
    try:
        validate_metric(M, samples=32, seed=7)
    except (GeometryError, DomainError) as exc:
        raise SpecFileError(f"{where}.metric", str(exc)) from exc
    conn = _parse_connection(doc.get("connection", {"kind": "levi-civita"}),
                             M, f"{where}.connection")
    dual = None
    if "dual_connection" in doc:
        dual = _parse_connection(doc["dual_connection"], M, f"{where}.dual_connection")
    return LoadedManifold(M, conn, dual, digest)


def _read_doc(path: Path) -> tuple[dict, str]:
    """The JSON object in the file at ``path`` and the sha256 of its bytes."""
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise SpecFileError(str(path), "file does not exist") from None
    except OSError as exc:
        raise SpecFileError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SpecFileError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError(str(path), "top level must be an object")
    return doc, sha256_of(data)


def load_spec(path: str):
    """Load a manifold or product spec file (JSON)."""
    p = Path(path)
    doc, digest = _read_doc(p)
    if doc.get("kind") == "twisted_product":
        return _load_product_doc(doc, p, digest)
    return _load_manifold_doc(doc, p.name, digest)


def _load_factor(ref, base_dir: Path, where: str) -> LoadedManifold:
    if isinstance(ref, dict):
        return _load_manifold_doc(ref, where, "inline")
    if not isinstance(ref, str):
        raise SpecFileError(where, "expected a path string or an inline manifold object")
    if not ref:  # an empty path would name the directory it is read from
        raise SpecFileError(where, "empty path")
    path = (base_dir / ref).resolve()
    doc, digest = _read_doc(path)
    # the kind is read before loading, since a product may name itself as a factor
    if doc.get("kind") == "twisted_product":
        raise SpecFileError(where, "factor file must describe a manifold")
    return _load_manifold_doc(doc, path.name, digest)


def _load_product_doc(doc: dict, path: Path, digest: str) -> LoadedProduct:
    base = _load_factor(_require(doc, "base", None, path.name), path.parent,
                        f"{path.name}.base")
    fiber = _load_factor(_require(doc, "fiber", None, path.name), path.parent,
                         f"{path.name}.fiber")
    twist = _require(doc, "twist", str, path.name)
    return _product(base, fiber, twist, f"{path.name}.fiber", f"{path.name}.twist", digest)


def _product(base: LoadedManifold, fiber: LoadedManifold, twist: str, fiber_field: str,
             twist_field: str, digest: str) -> LoadedProduct:
    """The product of two loaded factors.

    A clash of the factors' coordinate names is an error of ``fiber_field``;
    any other error is one of ``twist_field``.
    """
    try:
        P = twisted_product(base.manifold, fiber.manifold, twist)
    except (ParseError, GeometryError, DomainError) as exc:
        clash = set(base.manifold.coords) & set(fiber.manifold.coords)
        raise SpecFileError(fiber_field if clash else twist_field, str(exc)) from exc
    return LoadedProduct(P, base, fiber, digest)


# ---------------------------------------------------------------------------
# commands


def _write_report(path: str, payload) -> None:
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:  # an unwritable --report path is an input error: exit 2
        raise SpecFileError("--report", f"cannot write: {exc.strerror or exc}") from None


def _finish(rep: VerificationReport, config: RunConfig, extra: dict | None = None) -> int:
    print(rep.render_table())
    if config.report_path is not None:
        payload = rep.payload()
        if extra:
            payload["details"] = jsonable(extra)
        _write_report(config.report_path, payload)
    return 0 if rep.overall == "pass" else 1


def cmd_check(loaded: LoadedManifold, config: RunConfig) -> int:
    M = loaded.manifold
    ck = Checks(config, {"spec_digest": loaded.digest, "manifold": M.name})
    C = loaded.connection
    Cstar = loaded.dual_connection or conjugate(C, M)
    # the larger batch first: the metric rows are its row-prefix, read from one build
    x = M.sample_array(ck.n("duality-residual", "conjugation-involution"), config.seed)
    duality = duality_residual(M, C, Cstar, x)
    involution = involution_defect(M, C, Cstar, x)
    x = M.sample_array(ck.n("metric-symmetry", "inverse-metric"), config.seed)
    g = M.metric_at(x)
    ck.add("metric-symmetry", _max_abs(g - g.swapaxes(-1, -2)))
    ck.add("inverse-metric", inverse_defect(M, x))
    ck.add("duality-residual", duality,
           notes="" if loaded.dual_connection else "dual computed by conjugation")
    ck.add("conjugation-involution", involution)
    stat = is_statistical(M, C, ck.n("statistical-verdict"), config.seed)
    ck.add("statistical-verdict", None,
           notes=(f"statistical={stat.is_statistical} "
                  f"(max torsion {stat.max_torsion:.2e}, "
                  f"max cubic asymmetry {stat.max_cubic_asymmetry:.2e})"))
    return _finish(ck.report, config)


def cmd_conjugate(loaded: LoadedManifold, config: RunConfig) -> int:
    M = loaded.manifold
    point = M.point(config.point) if config.point else M.center()
    Cstar = conjugate(loaded.connection, M)
    gam = Cstar.gamma_at(point)
    ck = Checks(config, {"spec_digest": loaded.digest, "manifold": M.name})
    x = M.sample_array(ck.n("duality-residual"), config.seed)
    ck.add("duality-residual", duality_residual(M, loaded.connection, Cstar, x))
    print(f"conjugate connection at {point.tolist()} "
          f"(entries Gamma*^k_ij, upper index first):")
    d = M.dim
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if abs(gam[k, i, j]) > 1e-14:
                    print(f"  Gamma*^{k}_{i}{j} = {gam[k, i, j]:+.12g}")
    return _finish(ck.report, config, extra={"point": point, "gamma_star": gam})


def cmd_curvature(loaded: LoadedManifold, config: RunConfig) -> int:
    M = loaded.manifold
    point = M.point(config.point) if config.point else M.center()
    report = curvature_report(M, loaded.connection, point)
    print(f"curvature at {point.tolist()} on {M.name!r} "
          f"({loaded.connection.provenance}):")
    print(f"  max |R^l_ijk| = {float(np.abs(report.riemann).max()):.6e}"
          f"  (flat at point: {report.flat_at_point})")
    # one signed exponent format, so the layout depends on the dimension only
    print(f"  Ricci = {np.array2string(report.ricci, formatter={'float_kind': '{: .6e}'.format})}")
    print(f"  scalar = {report.scalar:.12g}")
    if report.weyl is not None:
        print(f"  max |Weyl| = {float(np.abs(report.weyl).max()):.6e}")
    if config.report_path is not None:
        _write_report(config.report_path, jsonable(report))
    return 0


def cmd_twist(loaded: LoadedProduct, config: RunConfig) -> int:
    P = loaded.product
    seed = config.seed
    ck = Checks(config, {"spec_digest": loaded.digest, "product": P.manifold.name,
                         "classification": P.classification})
    ck.add("twist-classification", None, notes=P.classification)
    ck.add("lift-lemma", lift_lemma_residual(P, ck.n("lift-lemma"), seed))
    ck.add("block-levi-civita", block_levi_civita_defect(P, ck.n("block-levi-civita"), seed))
    blocks = curvature_block_report(
        P, samples=ck.n(*CURVATURE_BLOCK_IDS, "curvature-block R(U,V)W variants"), seed=seed)
    for name, value in blocks.residuals.items():
        ck.add(f"curvature-block {name}", value)
    ck.add("curvature-block R(U,V)W variants", None,
           notes=f"as-printed={blocks.ruvw_printed:.3e}, "
                 f"index-consistent={blocks.ruvw_index_consistent:.3e}, "
                 f"adopted={blocks.ruvw_adopted}")
    tbl = mixed_ricci_table(P, ck.n("mixed-ricci"), seed)
    ck.add("mixed-ricci", abs(tbl["max_direct"] - tbl["max_closed_form"]),
           notes=f"max |Ric(X,V)| = {tbl['max_direct']:.3e}")
    if P.n >= 3:
        mw = mixed_weyl_report(P, samples=ck.n(*MIXED_WEYL_DISPLAY_IDS, "mixed-weyl-verdicts"),
                               seed=seed)
        ck.add("mixed-weyl-display C(X,Y)V", mw.display_xyv_residual)
        ck.add("mixed-weyl-display C(V,W)X", mw.display_vwx_residual)
        ck.add("mixed-weyl-verdicts", None,
               notes=f"C(X,Y)V=0: {mw.xyv_flat}, C(V,W)X=0: {mw.vwx_flat}, "
                     f"mixed flat: {mw.mixed_weyl_flat}")
    sep = separability_test(P, ck.n("separability"), seed)
    ck.add("separability", None,
           notes=(f"separable={sep.separable}, "
                  f"max cross-derivative={sep.max_cross_derivative:.3e}"))
    return _finish(ck.report, config)


def _analysis_notes(head: str, rec: TheoremRecord) -> str:
    """An analyzer row's note: its head, the prediction against the direct verdict, its notes."""
    return "; ".join((f"{head}, predicted={rec.predicted_dually_flat}, "
                      f"direct={rec.direct.dually_flat}, agreement={rec.agreement}",
                      *rec.notes))


def cmd_flatness(loaded: LoadedProduct, config: RunConfig) -> int:
    ck = Checks(config, {"spec_digest": loaded.digest})
    details: dict = {}
    seed = config.seed
    n = ck.n("conjugacy", "induced-duality")
    try:
        dB = make_dualistic(loaded.base.manifold, loaded.base.connection,
                            loaded.base.dual_connection, n, seed)
        dF = make_dualistic(loaded.fiber.manifold, loaded.fiber.connection,
                            loaded.fiber.dual_connection, n, seed)
        induced = induce_on_product(loaded.product, dB, dF, n, seed)
    except ConjugacyError as exc:
        ck.add("conjugacy", exc.residual, notes=str(exc))
        return _finish(ck.report, config)
    ck.add("induced-duality", induced.residual)

    n = ck.n("dually-flat-verdict", "flat-flags-agree")
    fv = dually_flat_verdict(induced, n, seed)
    ff = dually_flat_verdict(dF, n, seed)
    # the reduction chain is drawn at the mixed-Ricci analyzer's count
    n41 = ck.n("analyzer-mixed-ricci")
    chain = reduction_chain(induced, n41, seed)
    failing = []
    if not chain.base_verdict.dually_flat:
        failing.append(f"base {dB.manifold.name!r}")
    if not ff.dually_flat:
        failing.append(f"fiber {dF.manifold.name!r}")
    ck.add("dually-flat-verdict", None,
           notes=(f"dually flat: {fv.dually_flat} "
                  f"(max |R| = {fv.riemann_primal_max:.3e}, "
                  f"max |R*| = {fv.riemann_dual_max:.3e})"
                  + (f"; failing factors: {', '.join(failing)}" if failing else "")))
    ck.add("flat-flags-agree", fv.flat_flags_agree)

    rec41 = theorem41_analyze(induced, fv, chain, samples=n41, seed=seed)
    ck.add("analyzer-mixed-ricci", rec41.hypothesis["mixed_ricci_max"],
           notes=_analysis_notes(f"precondition={'holds' if rec41.applies else 'fails'}", rec41))
    details["mixed_ricci_analysis"] = rec41
    if induced.product.n >= 3:
        rec42 = theorem42_analyze(induced, fv, chain, samples=ck.n("analyzer-mixed-weyl"),
                                  seed=seed)
        ck.add("analyzer-mixed-weyl", *rec42.hypothesis.values(),
               notes=_analysis_notes(f"hypothesis={'holds' if rec42.applies else 'fails'}",
                                     rec42))
        details["mixed_weyl_analysis"] = rec42
    rec43 = theorem43_analyze(induced, fv, chain, samples=ck.n("analyzer-weyl-parallel"),
                              seed=seed)
    ck.add("analyzer-weyl-parallel", rec43.hypothesis["hessian_defect"],
           notes=_analysis_notes(f"branch={rec43.branch}", rec43))
    details["weyl_parallel_analysis"] = rec43
    details["direct_verdict"] = fv
    return _finish(ck.report, config, extra=details)


# ---------------------------------------------------------------------------
# argument parsing


# The run options; each command accepts only those it reads.  An option not
# given keeps RunConfig's default.
_OPTIONS = {
    "--samples": dict(type=int, help="sample points per check, an upper bound: each check's "
                                     "row in the check table (verify.CHECKS) caps it at 64 or "
                                     "less or uses a fixed count; only the conjugation "
                                     "identities, duality-residual and conjugation-involution "
                                     "use it in full"),
    "--seed": dict(type=int, help="RNG seed"),
    "--point": dict(help="comma-separated chart coordinates"),
    "--report": dict(dest="report_path", metavar="REPORT",
                     help="write the machine-readable JSON report here"),
}
# read by every command that reports rows of the check table
_COMMON = ("--samples", "--seed", "--report")
# One row per command, from which build_parser and main build every parser: (help,
# arguments: (name or flag, add_argument keywords) pairs added before the run options,
# the _OPTIONS it reads, handler(args, config), which looks cmd_* up when it runs).
COMMANDS = {
    "check": ("validate a manifold spec and its connection pair", [("spec", {})], _COMMON,
              lambda args, config: cmd_check(_load(args, LoadedManifold), config)),
    "conjugate": ("compute the conjugate connection", [("spec", {})], (*_COMMON, "--point"),
                  lambda args, config: cmd_conjugate(_load(args, LoadedManifold), config)),
    "curvature": ("curvature report at a point", [("spec", {})], ("--point", "--report"),
                  lambda args, config: cmd_curvature(_load(args, LoadedManifold), config)),
    "twist": ("verify twisted-product block formulas",
              [("spec", dict(nargs="?", default=None, help="product spec file")),
               ("--base", dict(help="base manifold spec file")),
               ("--fiber", dict(help="fiber manifold spec file")),
               ("--twist", dict(help="twisting expression over both factors' coordinates"))],
              _COMMON, lambda args, config: cmd_twist(_load_twist(args), config)),
    "flatness": ("dual-flatness verdict and theorem analyzers",
                 [("spec", dict(help="product spec file with factor connections"))], _COMMON,
                 lambda args, config: cmd_flatness(_load(args, LoadedProduct), config)),
    "verify-paper": ("run the built-in verification suite", [], _COMMON,
                     lambda args, config: _finish(verify_paper(config), config)),
}


def _load(args, kind: type):
    loaded = load_spec(args.spec)
    if not isinstance(loaded, kind):
        expected = "manifold" if kind is LoadedManifold else "product"
        raise SpecFileError(args.spec, f"{args.command} expects a {expected} spec")
    return loaded


def _load_twist(args) -> LoadedProduct:
    """The product of the spec file, or of ``--base``/``--fiber``/``--twist``."""
    if args.spec is not None:
        return _load(args, LoadedProduct)
    if None in (args.base, args.fiber, args.twist):
        raise SpecFileError(args.command, "provide a product spec or --base/--fiber/--twist")
    base = _load_factor(args.base, Path.cwd(), "--base")
    fiber = _load_factor(args.fiber, Path.cwd(), "--fiber")
    digest = sha256_of(f"{base.digest}|{fiber.digest}|{args.twist}".encode())
    return _product(base, fiber, args.twist, "--fiber", "--twist", digest)


def _config_from(args) -> RunConfig:
    options = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    report = options.get("report_path")
    if report is not None:
        # refused before the run, and no file is made; later failures are _write_report's.
        # An empty path names no file, though Path("") is the working directory.
        missing = not report or not Path(report).parent.is_dir()
        if missing or Path(report).is_dir():
            reason = errno.ENOENT if missing else errno.EISDIR
            raise SpecFileError("--report", f"cannot write: {os.strerror(reason)}")
    point = options.pop("point", None)
    if point is not None:
        try:
            options["point"] = tuple(float(part) for part in point.split(","))
        except ValueError:
            raise SpecFileError("--point", "expected comma-separated numbers") from None
    return RunConfig(**options)


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, arguments, options, _ = COMMANDS[name]
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    for flag in options:
        parser.add_argument(flag, default=argparse.SUPPRESS, **_OPTIONS[flag])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualgeo", description="dualistic structures on "
                                     "chart manifolds and twisted products")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, *_) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, built on its first use and kept for the process."""
    return _add_arguments(argparse.ArgumentParser(prog=f"dualgeo {name}"), name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse by the named command's kept parser alone; the full one takes what that cannot.

    A parse only reads the kept parser (each option's default is SUPPRESS or
    ``None``, never a shared mutable), so no call sees another's options.  The
    full parser, whose help, usage and error texts ``main`` prints, is built
    afresh on each call that needs it.
    """
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        *_, handler = COMMANDS[args.command]
        return handler(args, _config_from(args))
    except (ValueError, DomainError, SingularMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
