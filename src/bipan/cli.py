"""Command-line surface: validate, plan, exec, import-aml, export-dot, pdt.

Exit codes: 0 success, 1 validation errors or an infeasible result, 2 usage or
parse errors, 3 runtime failures (I/O, digest mismatch, replay failure); each
error code's status is in :data:`bipan.errors.EXIT_CODES`. Every error path
prints one machine-parsable line to stderr, ``error: <code>: <detail>``, with
line breaks in the detail escaped. Payloads go to stdout as UTF-8 bytes,
whatever the locale, diagnostics to stderr, and nothing ever reads the clock:
twin mutations require an explicit ``--at`` timestamp.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from bipan import canon, io  # registered unloaded; each command loads what it uses
from bipan.errors import EXIT_CODES, BiPanError

if TYPE_CHECKING:
    from collections.abc import Callable

    from bipan.model import BiPanModel

#: Each character ``str.splitlines`` breaks at, mapped to its escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _one_line(text: str) -> str:
    return text.translate(_LINE_BREAKS)


def _fail(exc: BiPanError) -> int:
    """Print ``exc`` as the one ``error: <code>: <detail>`` line; return its exit status."""
    print(f"error: {exc.code}: {_one_line(exc.detail)}", file=sys.stderr)
    return EXIT_CODES[exc.code]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load_model(path: str) -> BiPanModel:
    return io.load_model(io.read_file(path))


def _write(data: bytes) -> None:
    """Write ``data`` to stdout as these bytes, whatever encoding the locale gives stdout."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text stream with no bytes beneath it, such as ``io.StringIO``
        sys.stdout.write(data.decode("utf-8"))
    else:
        sys.stdout.flush()  # text written before goes first
        buffer.write(data)
        buffer.flush()  # and stderr lines written after go after


def _write_lines(lines: list[str]) -> None:
    _write("".join(f"{line}\n" for line in lines).encode("utf-8"))


def _emit(data: bytes, out: str | None) -> None:
    if out is None:
        _write(data)
    else:
        Path(out).write_bytes(data)


def _comma_list(text: str, option: str, noun: str, entry: Callable[[str], tuple]) -> dict[str, Any]:
    """Key and value of each non-empty chunk of a comma-separated option, by ``entry``.

    A key given twice, or no chunk at all, is a ``usage`` error.
    """
    entries: dict[str, Any] = {}
    for chunk in filter(None, text.split(",")):
        key, value = entry(chunk)
        if key in entries:
            raise BiPanError("usage", f"{option} names {key!r} more than once")
        entries[key] = value
    if not entries:
        raise BiPanError("usage", f"{option} must name at least one {noun}")
    return entries


def _replacement(chunk: str) -> tuple[str, str]:
    old, sep, new = chunk.partition("=")
    if not sep or not old or not new:
        raise BiPanError("usage", f"--replace entries must be old=new, got {chunk!r}")
    return old, new


def _parse_replacements(text: str) -> dict[str, str]:
    return _comma_list(text, "--replace", "old=new pair", _replacement)


# -- commands ---------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    diags = _load_model(args.model).diagnostics
    if args.format == "json":
        _write(canon.canonical_bytes(diags.to_obj()))
    else:
        lines = []
        for d in diags.items:
            nodes = f" [{', '.join(d.nodes)}]" if d.nodes else ""
            lines.append(f"{d.code} {d.severity.value.lower()}{nodes}: {d.message}")
        lines.append(f"{'OK' if not diags.has_errors else 'FAIL'} "
                     f"({len(diags.errors)} errors, {len(diags.warnings)} warnings)")
        _write_lines(lines)
    if diags.has_errors:
        return _fail(BiPanError("invalid-model", f"{len(diags.errors)} validation errors"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from bipan.plan import DisassemblyMode, assembly_recipe, check_feasibility, disassembly_to
    from bipan.plan import full_disassembly, repair_plan
    model = _load_model(args.model)
    if args.action == "assemble":
        plan = assembly_recipe(model)
    elif args.action == "disassemble":
        if args.target is None:
            plan = full_disassembly(model)
        else:
            mode = DisassemblyMode.EXTRACT if args.mode == "extract" else DisassemblyMode.EXPOSE
            plan = disassembly_to(model, args.target, mode)
    else:
        if args.broken is None or args.replace is None:
            raise BiPanError("usage", "plan repair requires --broken and --replace")
        broken = _comma_list(args.broken, "--broken", "component", lambda chunk: (chunk, None))
        plan = repair_plan(model, broken, _parse_replacements(args.replace))
    # Read the registry before anything is emitted: a bad one leaves no plan behind.
    skills = None if args.registry is None else io.load_registry(io.read_file(args.registry))

    _emit(io.save_plan(plan), args.out)
    if skills is None:
        return 0
    missing = check_feasibility(plan, skills)
    if args.out is not None:
        report = {
            "feasible": not any(missing),
            "per_step": [{"index": i, "missing_skills": list(m)} for i, m in enumerate(missing)],
        }
        _write(canon.canonical_bytes(report))
    if not any(missing):
        return 0
    for i, (step, step_missing) in enumerate(zip(plan.steps, missing)):
        if step_missing:
            print(_one_line(f"step {i} ({step.direction.value} '{step.process}'): "
                            f"missing {', '.join(step_missing)}"), file=sys.stderr)
    gaps = ", ".join(sorted(set().union(*missing)))
    return _fail(BiPanError("infeasible", f"missing skills: {gaps}"))


def _cmd_exec(args: argparse.Namespace) -> int:
    from bipan.execute import ExecState, initial_inventory, run
    plan = io.load_plan(io.read_file(args.plan))
    model = _load_model(args.model)
    if args.inventory == "initial":
        state = initial_inventory(model)
    elif args.inventory == "final":
        finals = model.final_products()
        state = ExecState(frozenset((*finals, *plan.replacement_ids())), {})
    else:
        state = io.load_state(io.read_file(args.inventory))
    trace = run(plan, state, model)
    if args.format == "json":
        _write(canon.canonical_bytes(io.trace_to_obj(trace)))
    else:
        lines = [
            f"step {i}: {step.direction.value} '{step.process}' -> "
            f"present: {', '.join(sorted(state.present))}"
            for i, (step, state) in enumerate(zip(trace.steps, trace.entries))
        ]
        final = trace.final
        lines.append(f"final: {', '.join(sorted(final.present))}")
        if final.substitutions:
            subs = ", ".join(f"{k}->{v}" for k, v in sorted(final.substitutions.items()))
            lines.append(f"substitutions: {subs}")
        _write_lines(lines)
    return 0


def _cmd_import_aml(args: argparse.Namespace) -> int:
    fragment = io.import_aml(io.read_file(args.aml))
    if args.merge is not None:
        model = io.merge(fragment, _load_model(args.merge))
        _emit(io.save_model(model), args.out)
    else:
        _emit(canon.canonical_bytes(fragment.to_obj()), args.out)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    plan = io.load_plan(io.read_file(args.plan)) if args.plan is not None else None
    _emit(io.export_dot(model, plan).encode("utf-8"), args.out)
    return 0


def _cmd_pdt_new(args: argparse.Namespace) -> int:
    from bipan.pdt import create_instance
    model = _load_model(args.model)
    pdt = create_instance(args.instance_id, model)
    target = io.instance_path(args.dir, pdt.instance_id)
    with io.instance_lock(args.dir, pdt.instance_id):
        if target.exists():
            raise BiPanError("io-error", f"instance file already exists: {target}")
        path = io.write_instance_file(pdt, args.dir)
    print(f"created {path}", file=sys.stderr)
    return 0


def _cmd_pdt_set_health(args: argparse.Namespace) -> int:
    from bipan.pdt import Health, set_health
    with io.instance_lock(args.dir, args.instance_id):
        pdt = io.read_instance_file(args.dir, args.instance_id)
        try:
            health = Health(args.health.capitalize())
        except ValueError:
            raise BiPanError(
                "usage", f"health must be one of ok, degraded, broken, unknown; got {args.health!r}"
            ) from None
        updated = set_health(pdt, args.component, health, args.at)
        io.write_instance_file(updated, args.dir)
    return 0


def _cmd_pdt_log(args: argparse.Namespace) -> int:
    pdt = io.read_instance_file(args.dir, args.instance_id)
    if args.format == "json":
        _write(canon.canonical_bytes(io.instance_to_obj(pdt)["events"]))
    else:
        lines = []
        for event in pdt.events:
            payload = " ".join(f"{k}={v}" for k, v in sorted(event.payload.items()))
            lines.append(f"{event.timestamp} {event.kind} {payload}".rstrip())
        _write_lines(lines)
    return 0


def _cmd_pdt_plan_repair(args: argparse.Namespace) -> int:
    from bipan.pdt import plan_repair_for
    with io.instance_lock(args.dir, args.instance_id):
        pdt = io.read_instance_file(args.dir, args.instance_id)
        model = _load_model(args.model)
        replacements = _parse_replacements(args.replace)
        updated, plan = plan_repair_for(pdt, model, replacements, args.at)
        io.write_instance_file(updated, args.dir)
    _emit(io.save_plan(plan), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bipan", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_validate = commands.add_parser("validate", help="check a model's structural rules")
    p_validate.add_argument("model")
    p_validate.add_argument("--format", choices=["human", "json"], default="human")
    p_validate.set_defaults(func=_cmd_validate)

    p_plan = commands.add_parser("plan", help="extract a directional plan")
    p_plan.add_argument("action", choices=["assemble", "disassemble", "repair"])
    p_plan.add_argument("model")
    p_plan.add_argument("--target", help="product to disassemble toward")
    p_plan.add_argument("--mode", choices=["expose", "extract"], default="expose")
    p_plan.add_argument("--broken", help="comma-separated broken component ids")
    p_plan.add_argument("--replace", help="comma-separated old=new replacement ids")
    p_plan.add_argument("--out", help="write the plan document here instead of stdout")
    p_plan.add_argument("--registry", help="resource registry file; infeasible plans exit 1")
    p_plan.set_defaults(func=_cmd_plan)

    p_exec = commands.add_parser("exec", help="replay a plan against an inventory")
    p_exec.add_argument("plan")
    p_exec.add_argument("model")
    p_exec.add_argument(
        "--inventory",
        default="initial",
        help="'initial' (leaves), 'final' (final product plus replacements), or a state file",
    )
    p_exec.add_argument("--format", choices=["human", "json"], default="human")
    p_exec.set_defaults(func=_cmd_exec)

    p_import = commands.add_parser("import-aml", help="import CAEX product structure")
    p_import.add_argument("aml")
    p_import.add_argument("--merge", help="model file to enrich with the imported products")
    p_import.add_argument("--out")
    p_import.set_defaults(func=_cmd_import_aml)

    p_dot = commands.add_parser("export-dot", help="render a model (and plan overlay) as DOT")
    p_dot.add_argument("model")
    p_dot.add_argument("--plan", help="plan file to overlay as numbered red edges")
    p_dot.add_argument("--out")
    p_dot.set_defaults(func=_cmd_export_dot)

    p_pdt = commands.add_parser("pdt", help="manage product twin instances")
    pdt_commands = p_pdt.add_subparsers(dest="pdt_command", required=True)

    p_new = pdt_commands.add_parser("new", help="create an instance file for a model")
    p_new.add_argument("instance_id")
    p_new.add_argument("model")
    p_new.add_argument("--dir", default=".")
    p_new.set_defaults(func=_cmd_pdt_new)

    p_health = pdt_commands.add_parser("set-health", help="record a component health state")
    p_health.add_argument("instance_id")
    p_health.add_argument("component")
    p_health.add_argument("health")
    p_health.add_argument("--at", required=True, help="ISO-8601 UTC timestamp")
    p_health.add_argument("--dir", default=".")
    p_health.set_defaults(func=_cmd_pdt_set_health)

    p_log = pdt_commands.add_parser("log", help="print an instance's event log")
    p_log.add_argument("instance_id")
    p_log.add_argument("--format", choices=["human", "json"], default="human")
    p_log.add_argument("--dir", default=".")
    p_log.set_defaults(func=_cmd_pdt_log)

    p_repair = pdt_commands.add_parser(
        "plan-repair", help="plan replacement of all Broken components"
    )
    p_repair.add_argument("instance_id")
    p_repair.add_argument("--model", required=True, help="model file the instance is bound to")
    p_repair.add_argument("--replace", required=True, help="comma-separated old=new ids")
    p_repair.add_argument("--at", required=True, help="ISO-8601 UTC timestamp")
    p_repair.add_argument("--out")
    p_repair.add_argument("--dir", default=".")
    p_repair.set_defaults(func=_cmd_pdt_plan_repair)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(BiPanError("usage", str(exc)))
    try:
        return args.func(args)
    except BiPanError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(BiPanError("io-error", str(exc)))


if __name__ == "__main__":
    sys.exit(main())
