"""Every name ``src/repro`` defines has a caller outside the tests, or a listed reason.

Library code that nothing calls is still read, tested and kept in step with
the code around it.  This test collects every function, method, property
and class that ``src/repro`` defines and fails on any whose name appears
nowhere in ``src``, ``benchmarks``, ``examples`` or ``layerbench`` as a
name, an attribute, an imported name or a string constant (string
constants cover ``getattr`` keys).  Inside ``src/repro`` a re-export is not
a caller: an import alias and the strings of an ``__all__`` assignment or
of a package's ``_LAZY_EXPORTS`` table (the names it imports on first use)
do not count there, so a name a package only re-exports is flagged.
Imports in ``benchmarks``, ``examples`` and ``layerbench`` still count.  The match
is by name alone, so a dead method that shares its name with a live one
passes: the scan can miss dead code, but it never flags code that runs.

Dunder methods (the interpreter calls them) and ``do_*`` methods
(``BaseHTTPRequestHandler`` dispatches HTTP verbs to them) are exempt by
rule.  Every other exception is listed below with its reason, and a listed
name that gains a caller or loses its definition must leave the list.
"""

import ast
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
    "add_sink": "Tracer sink hook the trace tests capture records through",
    "aggregate_iops": "reference query the one-pass result aggregation is compared to",
    "aggregate_throughput_mbps": "reference query the one-pass result aggregation is compared to",
    "any_of": "condition event beside all_of; the condition tests pin its semantics",
    "armed": "restartable-timer state the golden and QoS tests assert on",
    "buffer_level": "FTL write-buffer level the FTL drain tests assert on",
    "bytes_per_us_to_gbps": "inverse of gbps_to_bytes_per_us; the units test round-trips both",
    "cancel": "StoreGet withdrawal the resource tests pin",
    "connected": "initiator connection state the runtime and recovery tests assert on",
    "cwnd": "TCP congestion window the transport tests assert on",
    "DeviceErrorInjector": "test fake that fails every Nth command at the SSD controller",
    "fault_matrix_units": "fault-matrix campaign the pool differential tests run",
    "lookup": "discovery query the subsystem tests check",
    "metadata_lbas": "H5File layout the hdf5sim tests check",
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
    "subsystems": "discovery listing the subsystem tests check",
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
    "us_to_ms": "unit conversion the units test checks",
    "write_iops_ceiling": "profile ceiling the device tests compare to",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            if path == THIS_FILE:  # its lists would count as references
                continue
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defined():
    """Name -> ``path:line`` of each definition in the library."""
    out = {}
    for path, tree in _trees((LIBRARY,)):
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                out.setdefault(node.name, []).append(where)
    return out


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


def _referenced(dirs):
    names = set()
    for path, tree in _trees(dirs):
        in_library = path.is_relative_to(ROOT / LIBRARY)
        skipped = _exports(tree) if in_library else set()
        for node in ast.walk(tree):
            if node in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                if in_library:
                    continue
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _exempt_by_rule(name):
    return (name.startswith("__") and name.endswith("__")) or name.startswith("do_")


def test_every_library_name_has_a_caller():
    defined = _defined()
    used = _referenced(CALLERS)
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
    used = _referenced(CALLERS)
    read_by_tests = _referenced(TESTS)
    listed = {**OVERRIDES, **TEST_ONLY}
    assert not OVERRIDES.keys() & TEST_ONLY.keys()
    assert all(reason.strip() for reason in listed.values())
    stale = sorted(name for name in listed if name not in defined or name in used)
    assert not stale, f"listed names that are gone or now have a caller: {stale}"
    untested = sorted(name for name in TEST_ONLY if name not in read_by_tests)
    assert not untested, f"TEST_ONLY names no test reads (delete them): {untested}"
