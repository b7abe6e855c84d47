"""Shared pytest plumbing: the acceptance verdict lines, and two helpers that
several test modules use.

Each acceptance test records one PASS/FAIL line; they are echoed in the
terminal summary so the verdicts are visible without -s.
"""

VERDICTS = []


def record_verdict(number, ok, detail):
    VERDICTS.append(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if not VERDICTS:
        return
    terminalreporter.write_sep("-", "acceptance verdicts")
    for line in sorted(VERDICTS):
        terminalreporter.write_line(line)


def edit_bytes(blob, edits):
    """blob after (kind, position, piece) replacements, insertions and deletions."""
    for kind, pos, piece in edits:
        pos = min(pos, len(blob))
        if kind == "insert":
            blob = blob[:pos] + piece + blob[pos:]
        elif kind == "replace":
            blob = blob[:pos] + piece + blob[pos + 1:]
        else:
            blob = blob[:pos] + blob[pos + 1:]
    return blob


def reachable(root):
    """Every tensor reachable from root, leaves and data inputs included."""
    nodes, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    return list(nodes.values())
