"""Command-line surface: validate, plan, exec, import-aml, export-dot, pdt.

Exit codes: 0 success, 1 validation errors or an infeasible result, 2 usage or
parse errors, 3 runtime failures (I/O, digest mismatch, replay failure); each
error code's status is in :data:`bipan.errors.EXIT_CODES`. A command fails only
by raising, once it has written what it owes, and :func:`main` alone turns the
error into its exit status and one machine-parsable line on stderr,
``error: <code>: <detail>``, with line breaks in the detail escaped. Payloads go
to stdout and diagnostics to stderr, both as UTF-8 bytes whatever the locale, and
nothing ever reads the clock: twin mutations require an explicit ``--at`` timestamp.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, TextIO

from bipan import canon, exchange, io  # registered unloaded; each command loads what it uses
from bipan.errors import EXIT_CODES, BiPanError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from bipan.model import BiPanModel

#: Each character ``str.splitlines`` breaks at, mapped to its escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
#: Built before any work starts: once memory runs out there may be none left to build it.
_OUT_OF_MEMORY = b"error: out-of-memory: the command needs more memory than it may use\n"


def _one_line(text: str) -> str:
    return text.translate(_LINE_BREAKS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise BiPanError("usage", message)


def _load_model(path: str) -> BiPanModel:
    return io.load_model(io.read_file(path))


def _put(stream: TextIO, data: bytes) -> None:
    """Write ``data`` to ``stream`` as these bytes, whatever encoding the locale gives it."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:  # a text stream with no bytes beneath it, such as ``io.StringIO``
        stream.write(data.decode("utf-8"))
    else:
        stream.flush()  # text written before goes first
        buffer.write(data)
        buffer.flush()  # and lines written after to the other stream go after


def _note(line: str) -> None:
    """Write ``line`` to stderr as UTF-8; an undecodable argv byte prints as ``\\udcff``."""
    _put(sys.stderr, f"{line}\n".encode("utf-8", "backslashreplace"))


def _write_lines(lines: list[str]) -> None:
    _emit("".join(f"{line}\n" for line in lines).encode("utf-8"))


def _out_stream(out: str | None) -> TextIO | None:
    """Stdout with no ``--out``, the standard stream whose file ``out`` is, or None.

    Staging over the file behind stdout or stderr, as ``/dev/stderr`` is when
    stderr is redirected to a file, would leave that stream writing to the replaced
    file; written through the stream, the payload keeps its place among the lines.
    """
    if out is None:
        return sys.stdout
    for stream in (sys.stdout, sys.stderr):
        try:
            if os.path.samestat(os.stat(out), os.fstat(stream.fileno())):
                return stream
        except (AttributeError, OSError, ValueError):  # no such file, or no descriptor
            pass
    return None


@contextmanager
def _output(out: str | None, data: bytes) -> Iterator[None]:
    """Write ``data`` to ``out``, or to stdout if it is None, once the block succeeds.

    The file behind stdout or stderr is written through that stream (:func:`_out_stream`).
    A regular or absent file in a directory we may write is replaced through :func:`io.renamed`,
    after any symlink, keeping its mode or taking the one ``open`` gives. Any other
    target (a device, a FIFO or a link to one, a directory, a file in a directory we
    may not write) is opened, as ``open`` opens it, before the block and written after it.
    """
    stream = _out_stream(out)
    if stream is not None:
        yield
        _put(stream, data)
        return
    target = os.path.realpath(out)
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    except OSError:  # ``open`` below reports it
        mode = 0
    if stat.S_ISREG(mode) and os.access(os.path.dirname(target), os.W_OK | os.X_OK):
        with io.renamed(target, data, stat.S_IMODE(mode)):
            yield
        return
    with open(out, "wb") as handle:
        yield
        handle.write(data)


def _emit(data: bytes, out: str | None = None) -> None:
    with _output(out, data):
        pass


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


def _cmd_validate(args: argparse.Namespace) -> None:
    diags = _load_model(args.model).diagnostics
    if args.format == "json":
        _emit(canon.canonical_bytes(diags.to_obj()))
    else:
        lines = []
        for d in diags.items:
            nodes = f" [{', '.join(d.nodes)}]" if d.nodes else ""
            lines.append(f"{d.code} {d.severity.value.lower()}{nodes}: {d.message}")
        lines.append(f"{'OK' if not diags.has_errors else 'FAIL'} "
                     f"({len(diags.errors)} errors, {len(diags.warnings)} warnings)")
        _write_lines(lines)
    if diags.has_errors:
        raise BiPanError("invalid-model", f"{len(diags.errors)} validation errors")


def _cmd_plan(args: argparse.Namespace) -> None:
    from bipan.plan import DisassemblyMode, assembly_recipe, check_feasibility, disassembly_to
    from bipan.plan import full_disassembly, repair_plan
    # A usage error comes before any file is read, as does an option the action ignores.
    for option, value, action in (("--broken", args.broken, "repair"),
                                  ("--replace", args.replace, "repair"),
                                  ("--target", args.target, "disassemble")):
        if value is not None and args.action != action:
            raise BiPanError("usage", f"{option} applies only to plan {action}")
    if args.mode is not None and args.target is None:
        raise BiPanError("usage", "--mode applies only with --target")
    if args.action == "repair":
        if args.broken is None or args.replace is None:
            raise BiPanError("usage", "plan repair requires --broken and --replace")
        broken = _comma_list(args.broken, "--broken", "component", lambda chunk: (chunk, None))
        replacements = _parse_replacements(args.replace)
        for old in replacements:
            if old not in broken:
                raise BiPanError("usage", f"--replace names {old!r}, which --broken does not")
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
        plan = repair_plan(model, broken, replacements)
    # Read the registry before anything is emitted: a bad one leaves no plan behind.
    skills = None if args.registry is None else io.load_registry(io.read_file(args.registry))

    _emit(io.save_plan(plan), args.out)
    if skills is None:
        return
    missing = check_feasibility(plan, skills)
    if args.out is not None:
        report = {
            "feasible": not any(missing),
            "per_step": [{"index": i, "missing_skills": list(m)} for i, m in enumerate(missing)],
        }
        _emit(canon.canonical_bytes(report))
    if any(missing):
        for i, (step, step_missing) in enumerate(zip(plan.steps, missing)):
            if step_missing:
                _note(_one_line(f"step {i} ({step.direction.value} '{step.process}'): "
                                f"missing {', '.join(step_missing)}"))
        gaps = ", ".join(sorted(set().union(*missing)))
        raise BiPanError("infeasible", f"missing skills: {gaps}")


def _cmd_exec(args: argparse.Namespace) -> None:
    from bipan.execute import final_inventory, initial_inventory, run
    plan = io.load_plan(io.read_file(args.plan))
    model = _load_model(args.model)
    if args.inventory == "initial":
        state = initial_inventory(model)
    elif args.inventory == "final":
        state = final_inventory(model, plan)
    else:
        state = io.load_state(io.read_file(args.inventory))
    trace = run(plan, state, model)
    if args.format == "json":
        _emit(canon.canonical_bytes(trace.to_obj()))
    else:
        lines = [
            f"step {i}: {step.direction.value} '{step.process}' -> "
            f"-: {', '.join(step.consumed)}  +: {', '.join(step.produced)}"
            for i, step in enumerate(trace.steps)
        ]
        final = trace.final
        lines.append(f"final: {', '.join(sorted(final.present))}")
        if final.substitutions:
            subs = ", ".join(f"{k}->{v}" for k, v in sorted(final.substitutions.items()))
            lines.append(f"substitutions: {subs}")
        _write_lines(lines)


def _cmd_import_aml(args: argparse.Namespace) -> None:
    fragment = exchange.import_aml(io.read_file(args.aml))
    if args.merge is not None:
        model = exchange.merge(fragment, _load_model(args.merge))
        _emit(io.save_model(model), args.out)
    else:
        _emit(fragment.to_bytes(), args.out)


def _cmd_export_dot(args: argparse.Namespace) -> None:
    model = _load_model(args.model)
    plan = io.load_plan(io.read_file(args.plan)) if args.plan is not None else None
    _emit(exchange.export_dot(model, plan).encode("utf-8"), args.out)


def _cmd_pdt_new(args: argparse.Namespace) -> None:
    from bipan.pdt import create_instance
    model = _load_model(args.model)
    pdt = create_instance(args.instance_id, model)
    target = io.instance_path(args.dir, pdt.instance_id)
    with io.instance_lock(args.dir, pdt.instance_id):
        if target.exists():
            raise BiPanError("io-error", f"instance file already exists: {target}")
        path = io.write_instance_file(pdt, args.dir)
    _note(f"created {path}")


def _cmd_pdt_set_health(args: argparse.Namespace) -> None:
    from bipan.pdt import Health, set_health
    try:  # a usage error comes before the twin is locked or read
        health = Health(args.health.capitalize())
    except ValueError:
        names = ", ".join(h._value_.lower() for h in Health)
        raise BiPanError("usage", f"health must be one of {names}; got {args.health!r}") from None
    with io.instance_lock(args.dir, args.instance_id):
        pdt = io.read_instance_file(args.dir, args.instance_id)
        updated = set_health(pdt, args.component, health, args.at)
        io.write_instance_file(updated, args.dir)


def _cmd_pdt_log(args: argparse.Namespace) -> None:
    pdt = io.read_instance_file(args.dir, args.instance_id)
    if args.format == "json":
        _emit(canon.events_bytes(pdt.events))
    else:
        lines = []
        for event in pdt.events:
            payload = " ".join(f"{k}={v}" for k, v in sorted(event.payload.items()))
            lines.append(f"{event.timestamp} {event.kind} {payload}".rstrip())
        _write_lines(lines)


def _cmd_pdt_plan_repair(args: argparse.Namespace) -> None:
    from bipan.pdt import plan_repair_for
    replacements = _parse_replacements(args.replace)  # before the twin is locked or read
    with io.instance_lock(args.dir, args.instance_id):
        pdt = io.read_instance_file(args.dir, args.instance_id)
        model = _load_model(args.model)
        updated, plan = plan_repair_for(pdt, model, replacements, args.at)
        # --out is opened or staged before the twin logs the plan, so a bad --out logs nothing.
        with _output(args.out, io.save_plan(plan)):
            io.write_instance_file(updated, args.dir)


_FORMAT = {"choices": ["human", "json"], "default": "human"}
_DIR = {"default": "."}
_AT = {"required": True, "help": "ISO-8601 UTC timestamp"}

#: Each ``pdt`` subcommand's help, function and arguments (name: ``add_argument`` keywords).
_PDT_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], None], dict]] = {
    "new": ("create an instance file for a model", _cmd_pdt_new,
            {"instance_id": {}, "model": {}, "--dir": _DIR}),
    "set-health": ("record a component health state", _cmd_pdt_set_health,
                   {"instance_id": {}, "component": {}, "health": {}, "--at": _AT, "--dir": _DIR}),
    "log": ("print an instance's event log", _cmd_pdt_log,
            {"instance_id": {}, "--format": _FORMAT, "--dir": _DIR}),
    "plan-repair": ("plan replacement of all Broken components", _cmd_pdt_plan_repair, {
        "instance_id": {},
        "--model": {"required": True, "help": "model file the instance is bound to"},
        "--replace": {"required": True, "help": "comma-separated old=new ids"},
        "--at": _AT, "--out": {}, "--dir": _DIR,
    }),
}

#: Each command's help, function and arguments; ``pdt`` has a table of subcommands instead.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], None] | None, dict]] = {
    "validate": ("check a model's structural rules", _cmd_validate,
                 {"model": {}, "--format": _FORMAT}),
    "plan": ("extract a directional plan", _cmd_plan, {
        "action": {"choices": ["assemble", "disassemble", "repair"]}, "model": {},
        "--target": {"help": "product to disassemble toward"},
        "--mode": {"choices": ["expose", "extract"], "help": "with --target; default expose"},
        "--broken": {"help": "comma-separated broken component ids"},
        "--replace": {"help": "comma-separated old=new replacement ids"},
        "--out": {"help": "write the plan document here instead of stdout"},
        "--registry": {"help": "resource registry file; infeasible plans exit 1"},
    }),
    "exec": ("replay a plan against an inventory", _cmd_exec, {
        "plan": {}, "model": {},
        "--inventory": {"default": "initial", "help": "'initial' (leaves), 'final' (final product "
                        "plus replacements), or a state file"},
        "--format": _FORMAT,
    }),
    "import-aml": ("import CAEX product structure", _cmd_import_aml, {
        "aml": {}, "--merge": {"help": "model file to enrich with the imported products"},
        "--out": {},
    }),
    "export-dot": ("render a model (and plan overlay) as DOT", _cmd_export_dot,
                   {"model": {}, "--plan": {"help": "plan file to overlay as numbered red edges"},
                    "--out": {}}),
    "pdt": ("manage product twin instances", None, _PDT_COMMANDS),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
    """Register every command of ``table`` with its help and arguments."""
    commands = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, func, arguments) in table.items():
        command = commands.add_parser(name, help=help_text)
        if func is None:
            _add_commands(command, f"{name}_command", arguments)
            continue
        for flag, options in arguments.items():
            command.add_argument(flag, **options)
        command.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bipan", description=__doc__.splitlines()[0])
    _add_commands(parser, "command", _COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names; print its error, if it raises one, and return the status."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except BiPanError as exc:
        code, detail = exc.code, exc.detail
    except OSError as exc:
        code, detail = "io-error", str(exc)
    except MemoryError:
        code, detail = "out-of-memory", None  # printed once the handler lets go of the frames
    if detail is None:
        _put(sys.stderr, _OUT_OF_MEMORY)
    else:
        _note(f"error: {code}: {_one_line(detail)}")
    return EXIT_CODES[code]


if __name__ == "__main__":
    sys.exit(main())
