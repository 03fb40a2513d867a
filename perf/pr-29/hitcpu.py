#!/usr/bin/env python3
"""Server CPU and round trip per cache hit of a `barre serve` daemon.

usage: hitcpu.py BARRE_BIN N
Starts `barre serve --port 0 --workers 1` in a fresh cache directory, answers one
cold request, then sends N repeats of it on one connection and reads the daemon's
utime+stime from /proc/<pid>/stat before and after.
"""
import os, shutil, socket, subprocess, sys, tempfile, time

binary, n = sys.argv[1], int(sys.argv[2])
tick = os.sysconf("SC_CLK_TCK")
d = tempfile.mkdtemp(prefix="hitcpu-")
p = subprocess.Popen([binary, "serve", "--port", "0", "--workers", "1", "--cache-dir", d],
                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
addr = p.stdout.readline().split()[-1]
host, port = addr.rsplit(":", 1)

def cpu():
    f = open(f"/proc/{p.pid}/stat").read().rsplit(")", 1)[1].split()
    return (int(f[11]) + int(f[12])) / tick

s = socket.create_connection((host, int(port)))
s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
r = s.makefile("rb")
line = b'{"app":"gemv","mode":"fbarre","smoke":true,"seed":3,"id":"x"}\n'
s.sendall(line); cold = r.readline()
for _ in range(200):
    s.sendall(line); assert r.readline() == cold
c0, t0 = cpu(), time.perf_counter()
for _ in range(n):
    s.sendall(line); r.readline()
t1, c1 = time.perf_counter(), cpu()
s.close(); p.terminate(); p.wait()
shutil.rmtree(d, ignore_errors=True)
print(f"cpu_us_per_hit={1e6*(c1-c0)/n:.1f} rtt_us={1e6*(t1-t0)/n:.1f}")
