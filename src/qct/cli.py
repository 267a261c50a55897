"""Command-line front end: field inspection, code construction and surgery,
quantum parameter pipelines, table audits, and the persistent catalog."""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import audit as audit_mod
from . import families, lincode, quantum
from .catalog import Catalog
from .errors import PreconditionError, QctError
from .galois import (build_field, field_from_q, find_dual_basis,
                     find_self_dual_basis, get_embedding, standard_basis)
from .lincode import DEFAULT_CAP, min_distance


def _echo_json(*objs):
    """One JSON line per object, in one write."""
    click.echo("\n".join(json.dumps(obj, sort_keys=True) for obj in objs))


def _parse_element(token: str, field) -> int:
    """Field element literal: an integer in packed form, or w / w^k for
    powers of the canonical generator.  Anything else raises QctError."""
    token = token.strip()
    base, hat, exp = token.partition("^")
    try:
        if base == "w":
            return field.pow(field.generator, int(exp) if hat else 1)
        value = int(token)
    except ValueError:
        raise QctError(f"bad field element {token!r}: expected an integer, "
                       f"w or w^k") from None
    if not 0 <= value < field.order:
        raise QctError(f"element {value} out of range for {field}")
    return value


def _read_json(source: str):
    """The JSON document in a file, or on stdin for -.  Unreadable or
    malformed input raises QctError, so the CLI exits 1 with one line."""
    try:
        if source == "-":
            return json.loads(sys.stdin.read())
        with open(source) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
        raise QctError(f"cannot load {source}: {exc}") from exc


def _load_code(source: str):
    rec = _read_json(source)
    if not isinstance(rec, dict):
        raise QctError(f"cannot load {source}: not a JSON object")
    try:
        return lincode.code_from_json(rec)
    except KeyError as exc:
        raise QctError(f"cannot load {source}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise QctError(f"cannot load {source}: {exc}") from exc


def _emit_code(code, as_json: bool):
    if as_json:
        _echo_json(code.to_json())
    else:
        n, k, q = code.params()
        click.echo(f"[{n},{k}]_{q} {code.provenance}".strip())


def _emit_aqc(rec, as_json: bool):
    if as_json:
        _echo_json(rec.to_json())
    else:
        click.echo(f"{rec.label()} purity={rec.purity} "
                   f"exact=({rec.dz.kind},{rec.dx.kind})")


@click.group()
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_CAP,
              envvar="QCT_CAP", show_default=True,
              help="enumeration budget (codewords)")
@click.option("--seed", type=int, default=0, envvar="QCT_SEED",
              help="accepted and ignored: every search is deterministic")
@click.option("--catalog", "catalog_path", default=None, envvar="QCT_CATALOG",
              help="path of the JSON-lines catalog")
@click.option("--threads", type=click.IntRange(min=1), default=1,
              envvar="QCT_THREADS",
              help="worker threads for audits")
@click.pass_context
def main(ctx, cap, seed, catalog_path, threads):
    """Classical code constructions and asymmetric quantum code parameters."""
    ctx.ensure_object(dict)
    ctx.obj.update(cap=cap, catalog=catalog_path, threads=threads)


# -- field --------------------------------------------------------------------

@main.command("field")
@click.option("--p", type=int, required=True, help="characteristic")
@click.option("--e", type=int, default=1, show_default=True,
              help="extension degree")
@click.option("--dual-basis", default=None,
              help="comma-separated basis over the prime field")
@click.option("--self-dual-basis", "sdb", is_flag=True,
              help="search for a self-dual basis over the prime field")
@click.option("--json", "as_json", is_flag=True)
def field_cmd(p, e, dual_basis, sdb, as_json):
    """Describe GF(p^e); optionally compute dual / self-dual bases."""
    field = build_field(p, e)
    out = field.to_json()
    if dual_basis is not None or sdb:
        emb = get_embedding(build_field(p, 1), field)
        if dual_basis is not None:
            elems = tuple(_parse_element(t, field)
                          for t in dual_basis.split(","))
            if len(elems) != emb.m:
                raise QctError(f"--dual-basis needs {emb.m} elements of "
                               f"GF({p}^{e}) over GF({p}), got {len(elems)}")
            from .galois import ExtensionBasis
            basis = ExtensionBasis(emb, elems)
            dual = find_dual_basis(basis)
            out["dual_basis"] = list(dual.elements)
        if sdb:
            found = find_self_dual_basis(build_field(p, 1), field)
            out["self_dual_basis"] = (list(found.elements)
                                      if found is not None else None)
    if as_json:
        _echo_json(out)
    else:
        click.echo(f"GF({p}^{e}) modulus={out['modulus']} "
                   f"generator={out['generator']}")
        for key in ("dual_basis", "self_dual_basis"):
            if key in out:
                click.echo(f"{key}: {out[key]}")


# -- code ---------------------------------------------------------------------

@main.group()
def code():
    """Build and transform classical codes."""


@code.group()
def build():
    """Construct a code from a named family."""


@build.command("rs")
@click.option("--q", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def build_rs(q, k, as_json):
    _emit_code(families.rs_code(q, k), as_json)


@build.command("bch")
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--delta", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def build_bch(q, n, delta, as_json):
    _emit_code(families.bch_narrow_sense(field_from_q(q), n, delta), as_json)


@build.command("simplex")
@click.option("--m", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def build_simplex(m, as_json):
    simplex, c0 = families.simplex_and_c0(m)
    _emit_code(simplex, as_json)
    _emit_code(c0, as_json)


@build.command("preparata")
@click.option("--m", type=int, required=True)
@click.option("--i", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def build_preparata(m, i, as_json):
    _emit_code(families.preparata_like_bi(m, i), as_json)


@build.command("negacyclic")
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def build_negacyclic(q, n, s, as_json):
    _emit_code(families.negacyclic_cs(q, n, s), as_json)


@code.command("distance")
@click.argument("source")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def code_distance(ctx, source, as_json):
    """Minimum distance of a code given as JSON (file path or -)."""
    res = min_distance(_load_code(source), cap=ctx.obj["cap"])
    if as_json:
        _echo_json(res.to_json())
    else:
        click.echo(f"d={res.value} ({res.kind}, {res.method})")


def _surgery(name):
    @code.command(name)
    @click.argument("source")
    @click.option("--json", "as_json", is_flag=True)
    def cmd(source, as_json):
        c = _load_code(source)
        out = {"dual": c.dual, "hdual": c.hermitian_dual,
               "puncture": c.puncture, "extend": c.extend_parity}[name]()
        _emit_code(out, as_json)
    cmd.__name__ = name
    return cmd


for _name in ("dual", "hdual", "puncture", "extend"):
    _surgery(_name)


@code.command("expand")
@click.argument("source")
@click.option("--sub-q", type=int, required=True,
              help="subfield order to expand into")
@click.option("--parity", is_flag=True,
              help="append a per-symbol parity coordinate")
@click.option("--json", "as_json", is_flag=True)
def code_expand(source, sub_q, parity, as_json):
    c = _load_code(source)
    basis = standard_basis(get_embedding(field_from_q(sub_q), c.field))
    out = (lincode.expand_with_parity(c, basis) if parity
           else lincode.expand_basis(c, basis))
    _emit_code(out, as_json)


# -- quantum ------------------------------------------------------------------

@main.group("quantum")
def quantum_group():
    """Derive asymmetric quantum code parameters."""


@quantum_group.command("css")
@click.option("--c1", required=True)
@click.option("--c2", required=True)
@click.option("--hermitian", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_css(ctx, c1, c2, hermitian, as_json):
    fn = quantum.css_hermitian if hermitian else quantum.css_standard
    _emit_aqc(fn(_load_code(c1), _load_code(c2), ctx.obj["cap"]), as_json)


@quantum_group.command("allone")
@click.argument("source")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_allone(ctx, source, as_json):
    _emit_aqc(quantum.allone_aqc(_load_code(source), ctx.obj["cap"]), as_json)


@quantum_group.command("best")
@click.option("--variant", type=click.Choice(["bch", "self_dual", "simplex"]),
              required=True)
@click.option("--m", type=int, default=None, help="simplex variant input")
@click.option("--source", default=None, help="code JSON for bch / self_dual")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_best(ctx, variant, m, source, as_json):
    if variant == "simplex":
        if m is None:
            raise click.UsageError("--m required for the simplex variant")
        arg = m
    else:
        if source is None:
            raise click.UsageError("--source required for this variant")
        arg = _load_code(source)
    out = quantum.th_best_family(variant, arg, ctx.obj["cap"])
    for rec in out if isinstance(out, tuple) else (out,):
        _emit_aqc(rec, as_json)


@quantum_group.command("bch1")
@click.option("--m", type=int, required=True)
@click.option("--d1", type=int, required=True)
@click.option("--d2", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_bch1(ctx, m, d1, d2, as_json):
    _emit_aqc(quantum.lemma_bch1(m, d1, d2, ctx.obj["cap"]), as_json)


@quantum_group.command("charpin")
@click.option("--m", type=int, required=True)
@click.option("--i", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_charpin(ctx, m, i, as_json):
    for rec in quantum.charpin_family(m, i, ctx.obj["cap"]):
        _emit_aqc(rec, as_json)


@quantum_group.command("rsds")
@click.option("--q", type=int, required=True)
@click.option("--k1", type=int, required=True)
@click.option("--k2", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_rsds(ctx, q, k1, k2, as_json):
    _emit_aqc(quantum.rs_direct_sum_aqc(q, k1, k2, ctx.obj["cap"]), as_json)


@quantum_group.command("concat")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--k1", type=int, required=True)
@click.option("--k2", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def quantum_concat(ctx, q, m, k1, k2, as_json):
    _emit_aqc(quantum.concat_expand_aqc(q, m, k1, k2, ctx.obj["cap"]), as_json)


@quantum_group.command("qconcat")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--k1", type=int, required=True)
@click.option("--k2", type=int, required=True)
@click.option("--k", type=int, required=True, help="inner AQMDS parameter")
@click.option("--json", "as_json", is_flag=True)
def quantum_qconcat(q, m, k1, k2, k, as_json):
    _emit_aqc(quantum.quantum_concat_params(q, m, k1, k2, k), as_json)


@quantum_group.command("negaexp")
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def quantum_negaexp(q, n, s, m, as_json):
    _emit_aqc(quantum.negacyclic_expand_aqc(q, n, s, m), as_json)


@quantum_group.command("bound")
@click.option("--kind", required=True,
              type=click.Choice(["carlitz_uchiyama", "singleton_wt",
                                 "singleton"]))
@click.option("--m", type=click.IntRange(min=1), default=None)
@click.option("--delta", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def quantum_bound(kind, m, delta, n, k, as_json):
    args = {key: val for key, val in
            (("m", m), ("delta", delta), ("n", n), ("k", k))
            if val is not None}
    try:
        value = quantum.bounds(kind, **args)
    except KeyError as exc:   # an argument the kind reads was not given
        raise click.UsageError(
            f"--{exc.args[0]} is required for --kind {kind}") from None
    except PreconditionError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        _echo_json({"kind": kind, **args, "value": value})
    else:
        click.echo(str(value))


# -- audit --------------------------------------------------------------------

@main.command("audit")
@click.argument("table", type=click.Choice(["table1", "table2", "table3",
                                            "table4", "examples"]))
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@click.pass_context
def audit_cmd(ctx, table, as_json, as_csv):
    """Re-derive a published table; inconsistent rows are findings, not
    failures (exit code stays 0)."""
    report = audit_mod.audit_table(table, cap=ctx.obj["cap"],
                                   threads=ctx.obj["threads"])
    if as_json:
        _echo_json(report.to_json())
    elif as_csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim", "status"])
        for row in report.rows:
            writer.writerow([row.claim, row.status])
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        for line in report.lines():
            click.echo(line)
    if ctx.obj["catalog"]:
        _open_catalog(ctx).put("report", report.to_json())


# -- catalog ------------------------------------------------------------------

def _open_catalog(ctx) -> Catalog:
    """The --catalog store; a skipped cut-short last line is reported on
    stderr and does not change the exit code."""
    cat = Catalog(ctx.obj["catalog"])
    if cat.skipped_tail is not None:
        click.echo(f"warning: catalog {cat.path}: skipped unterminated "
                   f"line {cat.skipped_tail} (a cut-short write)", err=True)
    return cat


@main.group("catalog")
@click.pass_context
def catalog_group(ctx):
    """Query or extend the JSON-lines catalog."""
    if not ctx.obj["catalog"]:
        raise click.UsageError("--catalog PATH (or QCT_CATALOG) is required")


@catalog_group.command("put")
@click.argument("source")
@click.option("--kind", type=click.Choice(["classical", "quantum", "report"]),
              required=True)
@click.pass_context
def catalog_put(ctx, source, kind):
    entry = _open_catalog(ctx).put(kind, _read_json(source))
    click.echo(entry.id)


@catalog_group.command("get")
@click.argument("eid")
@click.pass_context
def catalog_get(ctx, eid):
    _echo_json(_open_catalog(ctx).get(eid).to_json())


@catalog_group.command("list")
@click.option("--kind", default=None)
@click.pass_context
def catalog_list(ctx, kind):
    for entry in _open_catalog(ctx).list(kind):
        click.echo(f"{entry.id} {entry.kind}")


@catalog_group.command("search")
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--dz-min", type=int, default=None)
@click.option("--dx-min", type=int, default=None)
@click.pass_context
def catalog_search(ctx, n, k, q, dz_min, dx_min):
    hits = _open_catalog(ctx).search(n=n, k=k, q=q, dz_min=dz_min,
                                     dx_min=dx_min)
    if hits:
        _echo_json(*(entry.to_json() for entry in hits))


def run_cli(argv=None) -> int:
    """Programmatic entry point returning the process exit code."""
    try:
        main.main(args=argv, standalone_mode=False, obj={})
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 2
    except QctError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


def entry():  # console_scripts hook
    sys.exit(run_cli())


if __name__ == "__main__":
    entry()
