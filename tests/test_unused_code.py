"""Every name ``src/repro`` defines has a caller outside the tests, or a listed reason.

Library code that nothing calls is still read, tested and kept in step with
the code around it.  This test collects every function, method, property
and class that ``src/repro`` defines and fails on any whose name appears
nowhere in ``src``, ``benchmarks``, ``examples`` or ``layerbench`` as a
name, an attribute, an imported name or a string constant (string
constants cover ``getattr`` keys).  A name defined only inside class bodies
(a method or a property) is reached only through an object, so for it only
an attribute (``x.name``) or a string constant counts: a bare variable or
an import of the same name does not.  Inside ``src/repro`` a re-export is
not a caller: an import alias and the strings of an ``__all__`` assignment
or of a package's ``_LAZY_EXPORTS`` table (the names it imports on first
use) do not count there, so a name a package only re-exports is flagged.
Imports in ``benchmarks``, ``examples`` and ``layerbench`` still count.  The match
is by name alone, so a dead method that shares its name with a live one
passes: the scan can miss dead code, but it never flags code that runs.

Dunder methods (the interpreter calls them) and ``do_*`` methods
(``BaseHTTPRequestHandler`` dispatches HTTP verbs to them) are exempt by
rule.  Every other exception is listed below with its reason, and a listed
name that gains a caller or loses its definition must leave the list.

The same scan holds every option to account: each parameter with a default
of a function, method or ``__init__`` in ``src/repro`` must be set
somewhere in those directories, or its default is the only value it ever
takes.  A parameter counts as set by a keyword argument of its name (a
same-name forward ``k=k`` of the enclosing function's own parameter ``k``
does not count: it passes a value on without choosing one), by a string
constant equal to its name (``**{"k": v}``, config dicts), or by a call of
its function's name with enough positional arguments to reach it; for an
``__init__`` that is a call of the class or of a subclass.  Parameters
named ``_*`` (the value an event callback is handed) and ``argv`` (the
command line fills it) are exempt by rule; an option only tests set is
listed in ``TEST_SET`` with the test and its reason, under the same
currency rules as ``TEST_ONLY``.
"""

import ast
import functools
import math
from pathlib import Path

THIS_FILE = Path(__file__).resolve()
ROOT = THIS_FILE.parent.parent
LIBRARY = "src/repro"
CALLERS = ("src", "benchmarks", "examples", "layerbench")
TESTS = ("tests",)

#: Methods the standard library calls on a subclass.
OVERRIDES = {
    "log_message": "BaseHTTPRequestHandler calls it per request; the override silences stderr",
}

#: Names only tests read: reference queries the fast paths are compared
#: against, and state a test asserts on that no run needs to read.
TEST_ONLY = {
    "aggregate_iops": "reference query the one-pass result aggregation is compared to",
    "aggregate_throughput_mbps": "reference query the one-pass result aggregation is compared to",
    "any_of": "condition event beside all_of; the condition tests pin its semantics",
    "buffer_level": "FTL write-buffer level the FTL drain tests assert on",
    "bytes_per_us_to_gbps": "inverse of gbps_to_bytes_per_us; the units test round-trips both",
    "cancel": "StoreGet withdrawal the resource tests pin",
    "connected": "initiator connection state the runtime and recovery tests assert on",
    "cwnd": "TCP congestion window the transport tests assert on",
    "delivered": "link frame total the link droptail test checks",
    "DeviceErrorInjector": "test fake that fails every Nth command at the SSD controller",
    "event": "bare untriggered event the engine and condition tests build and trigger",
    "fault_matrix_units": "fault-matrix campaign the pool differential tests run",
    "metadata_lbas": "H5File layout the hdf5sim tests check",
    "nblocks": "dataset size in blocks the hdf5sim layout test checks",
    "op_name": "SQE opcode mnemonic the capsule round-trip test checks",
    "outstanding_drains": "drain bookkeeping the drain-property tests assert on",
    "p99_estimate": "P2 tail estimate the telemetry tests compare to exact quantiles",
    "pdus_received": "transport counter the subsystem tests check",
    "pdus_sent": "transport counter the subsystem tests check",
    "program_units": "scenario-program campaign the pool differential and worker golden-pin tests run",
    "raise_for_status": "typed error of a failed request; the recovery tests pin the mapping",
    "read_iops_ceiling": "profile ceiling the device throughput tests compare to",
    "reap": "host reap of an unpolled CQE; the SSD ring tests use it",
    "result_for": "campaign lookup by unit id the pool fault tests read",
    "rto": "TCP retransmission timeout the transport tests assert on",
    "run_to_completion": "drives a session until it seals; the service tests use it",
    "send_backlog": "socket send backlog the transport tests assert on",
    "service_time": "reference draw the controller's inlined service time is compared to",
    "spawn": "scoped RNG streams whose derivation the RNG tests pin",
    "summary_lines": "QoS report text the QoS tests check",
    "tap": "telemetry completion hook the QoS tests feed directly",
    "target_per_request_baseline": "cost-model total the CPU tests check against calibration",
    "target_per_request_coalesced": "cost-model total the CPU tests check against calibration",
    "tenant_report": "per-tenant coalescing stats the reporting tests check",
    "total_queued": "tenant-registry total the priority-manager tests assert on",
    "total_space_bytes": "tenant-registry footprint the priority-manager tests assert on",
    "trigger": "event chaining the engine tests pin",
    "tx_dropped": "NIC counter the link and fault tests assert on",
    "tx_packets": "NIC counter the link tests assert on",
    "up": "link administrative state the fault-adapter flap test asserts on",
    "us_to_ms": "unit conversion the units test checks",
    "write_iops_ceiling": "profile ceiling the device tests compare to",
}

#: Options only tests set: ``owner.parameter`` -> the test that sets it and
#: why.  The owner of an ``__init__`` parameter is its class; of a method,
#: ``Class.method``.
TEST_SET = {
    "CidQueue.retired_memory": (
        "test_opf_drain_properties shrinks the retired-CID ring (4 CIDs, and "
        "hypothesis-drawn sizes) so a few retirements reach its wrap and eviction"
    ),
    "Environment.initial_time": (
        "the engine, fast-path and batched-path tests start the clock off zero "
        "so absolute and relative times differ"
    ),
    "NormalBuffer.batch": (
        "test_ssd_array_rng draws in batches of 3 to 8 so a short run crosses "
        "several refills"
    ),
    "OpfInitiator.auto_drain_idle_us": (
        "the drain, live-lock and bypass tests turn the idle drain off (None) to "
        "park a partial window; test_idle_timer_auto_drains shortens it"
    ),
    "Store.capacity": "test_simcore_resources bounds a store to pin its blocking put",
    "Subsystem.add_namespace.device_nsid": (
        "test_opf_command_path maps fabric namespace 2 onto device namespace 2; "
        "test_config_and_subsystem refuses a device namespace that does not exist"
    ),
    "fault_matrix_units.kinds": (
        "the pool tests run one fault kind per campaign and refuse an unknown kind"
    ),
    "program_units.names": "the pool differential test runs one library program",
    "register_executor.replace": (
        "the pool tests register fake executors when their module is imported, "
        "and a second import must not refuse them"
    ),
    "run_qos_aimd.start_window": (
        "test_qos starts the AIMD tuner at both ends of the window range (4 and 64)"
    ),
    "run_qos_aimd.total_ops_offline": (
        "test_qos shortens the offline sweep to 1,200 ops to keep tier-1 fast"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _trees(dirs):
    out = []
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            if path == THIS_FILE:  # its lists would count as references
                continue
            out.append((path, ast.parse(path.read_text(), filename=str(path))))
    return tuple(out)


def _defined():
    """Name -> ``path:line`` of each definition in the library."""
    out = {}
    for path, tree in _trees((LIBRARY,)):
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                out.setdefault(node.name, []).append(where)
    return out


@functools.lru_cache(maxsize=None)
def _members_only():
    """Names every library definition of which sits in a class body."""
    members, others = set(), set()
    for _path, tree in _trees((LIBRARY,)):
        in_class = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                (members if id(node) in in_class else others).add(node.name)
    return frozenset(members - others)


#: Assignments whose strings re-export names rather than use them.
_EXPORT_TABLES = ("__all__", "_LAZY_EXPORTS")


def _exports(tree):
    """The nodes of the module's ``__all__`` and ``_LAZY_EXPORTS`` assignments."""
    return {
        part
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in _EXPORT_TABLES for t in node.targets)
        for part in ast.walk(node.value)
    }


@functools.lru_cache(maxsize=None)
def _referenced(dirs):
    """``(names, attributes)``: every name ``dirs`` reference, and those
    referenced as an attribute or a string constant."""
    names, attributes = set(), set()
    for path, tree in _trees(dirs):
        in_library = path.is_relative_to(ROOT / LIBRARY)
        skipped = _exports(tree) if in_library else set()
        for node in ast.walk(tree):
            if node in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                if in_library:
                    continue
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names | attributes, attributes


def _uses(dirs):
    """The library names ``dirs`` use, a member-only name only through an
    object."""
    names, attributes = _referenced(dirs)
    members = _members_only()
    return {name for name in names if name not in members} | attributes


def _exempt_by_rule(name):
    return (name.startswith("__") and name.endswith("__")) or name.startswith("do_")


def test_every_library_name_has_a_caller():
    defined = _defined()
    used = _uses(CALLERS)
    unused = {
        name: where
        for name, where in sorted(defined.items())
        if name not in used
        and not _exempt_by_rule(name)
        and name not in OVERRIDES
        and name not in TEST_ONLY
    }
    assert not unused, (
        "defined in src/repro but referenced nowhere in "
        f"{', '.join(CALLERS)}: {unused}; delete them, give them a caller, "
        "or list them in OVERRIDES / TEST_ONLY with a reason"
    )


def test_exemptions_are_current():
    defined = _defined()
    used = _uses(CALLERS)
    read_by_tests = _uses(TESTS)
    listed = {**OVERRIDES, **TEST_ONLY}
    assert not OVERRIDES.keys() & TEST_ONLY.keys()
    assert all(reason.strip() for reason in listed.values())
    stale = sorted(name for name in listed if name not in defined or name in used)
    assert not stale, f"listed names that are gone or now have a caller: {stale}"
    untested = sorted(name for name in TEST_ONLY if name not in read_by_tests)
    assert not untested, f"TEST_ONLY names no test reads (delete them): {untested}"


# -- options ---------------------------------------------------------------------


def _subclasses():
    """Class name -> the names of it and of every class derived from it."""
    bases = {}
    for _path, tree in _trees((LIBRARY,)):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute))
                )
    out = {}
    for name in bases:
        family = {name}
        grew = True
        while grew:
            derived = {c for c, b in bases.items() if c not in family and b & family}
            family |= derived
            grew = bool(derived)
        out[name] = family
    return out


def _options():
    """``(owner.parameter, path:line, positional index or None, callers)``
    for each parameter with a default; ``callers`` are the names whose
    calls fill it positionally (the index counts no ``self``/``cls``)."""
    subclasses = _subclasses()
    out = []

    def visit(node, path, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{owner}{child.name}.", child.name)
            elif isinstance(child, _FUNCS):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                if child.name == "__init__" and cls is not None:
                    key, callers = owner[:-1], subclasses[cls]
                else:
                    key, callers = f"{owner}{child.name}", {child.name}
                where = f"{path.relative_to(ROOT)}:{child.lineno}"
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], start=first):
                    out.append((f"{key}.{arg.arg}", where, index - bound, callers))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((f"{key}.{arg.arg}", where, None, callers))
                visit(child, path, f"{owner}{child.name}.", None)
            else:
                visit(child, path, owner, cls)

    for path, tree in _trees((LIBRARY,)):
        visit(tree, path, "", None)
    return out


def _setters(dirs):
    """Keyword names, string constants, and the most positional arguments
    any call of each name passes (``inf`` for a ``*args`` call)."""
    keywords, strings, positional = set(), set(), {}

    def visit(node, params, skipped):
        for child in ast.iter_child_nodes(node):
            if child in skipped:
                continue
            if isinstance(child, (*_FUNCS, ast.Lambda)):
                a = child.args
                visit(child, {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}, skipped)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    starred = any(isinstance(a, ast.Starred) for a in child.args)
                    count = math.inf if starred else len(child.args)
                    positional[name] = max(positional.get(name, 0), count)
                for kw in child.keywords:
                    forward = isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
                    if kw.arg is not None and not (forward and kw.arg in params):
                        keywords.add(kw.arg)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                strings.add(child.value)
            visit(child, params, skipped)

    for path, tree in _trees(dirs):
        in_library = path.is_relative_to(ROOT / LIBRARY)
        visit(tree, set(), _exports(tree) if in_library else set())
    return keywords, strings, positional


def _exempt_param(name):
    return name.startswith("_") or name == "argv"


def _unset(dirs):
    """``owner.parameter`` -> ``path:line`` of each option nothing in
    ``dirs`` sets."""
    keywords, strings, positional = _setters(dirs)
    out = {}
    for key, where, index, callers in _options():
        name = key.rsplit(".", 1)[1]
        if _exempt_param(name) or name in keywords or name in strings:
            continue
        if index is not None and any(positional.get(c, 0) > index for c in callers):
            continue
        out[key] = where
    return out


def test_every_option_has_a_setter():
    unset = {key: where for key, where in sorted(_unset(CALLERS).items()) if key not in TEST_SET}
    assert not unset, (
        f"options nothing in {', '.join(CALLERS)} sets: {unset}; delete them "
        "(the default becomes a constant), set them, or list them in TEST_SET "
        "with the test that sets them and why"
    )


def test_test_set_is_current():
    options = {key for key, *_rest in _options()}
    unset = _unset(CALLERS)
    unset_by_tests = _unset(TESTS)
    assert all(reason.strip() for reason in TEST_SET.values())
    stale = sorted(key for key in TEST_SET if key not in options or key not in unset)
    assert not stale, f"TEST_SET options that are gone or now have a setter: {stale}"
    untested = sorted(key for key in TEST_SET if key in unset_by_tests)
    assert not untested, f"TEST_SET options no test sets (delete them): {untested}"
