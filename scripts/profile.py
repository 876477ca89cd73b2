#!/usr/bin/env python3
"""Sampling profiler for hosts without perf, gdb or valgrind. Stdlib only;
informational, never a gate.

    python3 scripts/profile.py [--top N] -- BINARY [ARGS...]

Spawns BINARY and samples its user-space instruction pointer every 50 us of
CPU time through a perf_event_open software CPU_CLOCK event. There is no
inherit: only the thread that execs is sampled, so profile single-threaded
runs. The samples are symbolised with `addr2line -a -f -i -C` against BINARY,
which needs debug info (the root workspace's release profile has it). Prints
the leaf share and the inclusive share of each inlined frame, and the leaf
source lines. Samples outside BINARY (libc, the vdso) count as "[outside]".
"""
import collections, ctypes, mmap, os, platform, shutil, struct, subprocess, sys, time

PAGES, PAGE = 256, mmap.PAGESIZE
RING = PAGES * PAGE
SYSCALL = {"x86_64": 298, "aarch64": 241}[platform.machine()]
# perf_event_attr (112 bytes): PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_CLOCK,
# a 50000 ns period, PERF_SAMPLE_IP; flags disabled | exclude_kernel |
# exclude_hv | enable_on_exec, so sampling starts when the child execs.
FLAGS = 1 | 1 << 5 | 1 << 6 | 1 << 12
ATTR = struct.pack("IIQQQQQ", 1, 112, 0, 50_000, 1, 0, FLAGS).ljust(112, b"\0")
OUTSIDE = ("[outside]", "??:0")


def sample(argv, binary):
    """Runs argv to completion: the sampled IPs, the binary's mappings
    [(start, end, file offset)] and the count of lost samples."""
    gate_r, gate_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # wait until the event is attached, then exec
        os.close(gate_w)
        os.read(gate_r, 1)
        try:
            os.execvp(argv[0], argv)
        finally:  # never fall through into the parent's code
            os._exit(127)
    os.close(gate_r)
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(SYSCALL, ctypes.create_string_buffer(ATTR, 112), pid, -1, -1, 8)
    if fd < 0:
        os.kill(pid, 9)
        sys.exit(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
    ring = mmap.mmap(fd, PAGE + RING)
    os.write(gate_w, b"x")
    os.close(gate_w)

    def read(at, n):  # n bytes of the data area at `at`, wrapping around
        at %= RING
        chunk = ring[PAGE + at : PAGE + min(at + n, RING)]
        return chunk + ring[PAGE : PAGE + n - len(chunk)]

    ips, maps, lost, tail, done = [], [], 0, 0, False
    while not done:
        done = os.waitpid(pid, os.WNOHANG)[0] == pid
        maps = maps or (not done and mappings(pid, binary)) or []
        head = struct.unpack_from("Q", ring, 1024)[0]  # data_head
        while tail < head:
            kind, _, size = struct.unpack("IHH", read(tail, 8))
            if kind == 9:  # PERF_RECORD_SAMPLE: header, ip
                ips.append(struct.unpack("Q", read(tail + 8, 8))[0])
            elif kind == 2:  # PERF_RECORD_LOST: header, id, lost
                lost += struct.unpack("Q", read(tail + 16, 8))[0]
            tail += size
        struct.pack_into("Q", ring, 1032, tail)  # data_tail
        time.sleep(0.02)
    return ips, maps, lost


def mappings(pid, binary):
    try:
        with open(f"/proc/{pid}/maps") as f:
            rows = [line.split() for line in f]
    except OSError:
        return []
    return [(*(int(x, 16) for x in r[0].split("-")), int(r[2], 16)) for r in rows if r[-1] == binary]


def symbolise(binary, addresses):
    """address -> inline chain [(function, file:line)], innermost first."""
    query = "".join(f"{a:x}\n" for a in addresses)
    command = ["addr2line", "-a", "-f", "-i", "-C", "-e", binary]
    out = subprocess.run(command, input=query, capture_output=True, text=True, check=True)
    chains, current = {}, []
    for line in out.stdout.splitlines():
        if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
            current = chains.setdefault(int(line, 16), [])
        else:
            current.append(line)
    return {a: list(zip(f[0::2], (p.rsplit("/", 1)[-1] for p in f[1::2]))) for a, f in chains.items()}


def main():
    args = sys.argv[1:]
    top = 25
    if args[:1] == ["--top"]:
        top, args = int(args[1]), args[2:]
    argv = args[1:] if args[:1] == ["--"] else args
    if not argv:
        sys.exit(__doc__)
    binary = os.path.realpath(shutil.which(argv[0]) or argv[0])
    if not os.path.isfile(binary):
        sys.exit(f"no such binary: {argv[0]}")
    ips, maps, lost = sample(argv, binary)
    with open(binary, "rb") as f:  # ET_DYN (PIE): its addresses start at 0
        pie = struct.unpack_from("H", f.read(18), 16)[0] == 3
    base = min((start - offset for start, _, offset in maps), default=0) if pie else 0
    inside = lambda ip: any(start <= ip < end for start, end, _ in maps)
    hits = collections.Counter(ip - base if inside(ip) else None for ip in ips)
    chains = symbolise(binary, sorted(a for a in hits if a is not None))
    leaf, inclusive, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for address, n in hits.items():
        chain = chains.get(address) or [OUTSIDE]
        leaf[chain[0][0]] += n
        lines[f"{chain[0][1]}  {chain[0][0][:70]}"] += n
        for function in {function for function, _ in chain}:
            inclusive[function] += n
    total = max(1, len(ips))
    print(f"{len(ips)} samples ({len(ips) * 50e-6:.2f} s of CPU), {lost} lost")
    for title, table in (("leaf", leaf), ("inclusive (inlined frames)", inclusive), ("leaf source lines", lines)):
        print(f"\n== {title}")
        for name, n in table.most_common(top):
            print(f"{100 * n / total:6.2f}%  {name[:160]}")


if __name__ == "__main__":
    main()
