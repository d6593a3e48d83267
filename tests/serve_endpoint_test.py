#!/usr/bin/env python3
"""End-to-end check of `ucr_admin serve` with an ephemeral port.

Regression test for the port-binding race: with port 0 the kernel picks
the port, so a script cannot know where to connect unless the server
says so. `ucr_admin serve` prints `listening 127.0.0.1:<port>` as its
FIRST stdout line (flushed before the banner); this test builds a demo
store, starts the server on port 0, parses that line, and exercises the
HTTP surface:

  /healthz     -> 200; serve's sampler evaluates the health rules on
                  every tick, so the body is the JSON verdict (status
                  "ok" on a healthy server)
  /varz        -> 200, JSON carrying the "epoch" object (current
                  epoch, reader pins, publication lag) because serve
                  enables snapshot reads before starting the exporter
  /timeseries  -> 200, JSON from the live sampler ("running": true)
  /statz       -> 200, JSON one-page summary (qps, health, phases)
  /profilez    -> 200, folded stacks from the wall-clock profiler
                  serve starts (every line `frame[;frame...] <count>`)

plus one `ucr_admin top <host:port> --once` invocation against the
running server — the operator dashboard's whole data path — and one
`ucr_admin profile <host:port> --once`, the flamegraph-export path.

Usage: serve_endpoint_test.py <path-to-ucr_admin>
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request


def fail(proc, message):
    try:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=5)
    except Exception:
        proc.kill()
        out = "<no output captured>"
    print(f"FAIL: {message}", file=sys.stderr)
    print(f"--- server output ---\n{out}", file=sys.stderr)
    return 1


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <path-to-ucr_admin>", file=sys.stderr)
        return 2
    admin = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "demo.ucr")
        demo = subprocess.run([admin, "demo", store], capture_output=True,
                              text=True)
        if demo.returncode != 0:
            print(f"FAIL: demo exited {demo.returncode}\n{demo.stderr}",
                  file=sys.stderr)
            return 1

        proc = subprocess.Popen([admin, "serve", store, "0"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            # The listening line is printed and flushed before anything
            # else, so one blocking readline is the whole handshake —
            # no polling, no sleep, no race.
            line = proc.stdout.readline().strip()
            prefix = "listening 127.0.0.1:"
            if "UCR_METRICS=OFF" in line:
                # Instrumentation compiled out: serve has no exporter
                # to bind. Exit 77 = ctest SKIP_RETURN_CODE.
                print(f"SKIP: {line}")
                return 77
            if not line.startswith(prefix):
                return fail(proc, f"first line {line!r} lacks {prefix!r}")
            port = int(line[len(prefix):])
            if not 1 <= port <= 65535:
                return fail(proc, f"nonsense port {port}")

            base = f"http://127.0.0.1:{port}"
            status, body = fetch(base + "/healthz")
            if status != 200 or "ok" not in body:
                return fail(proc, f"/healthz -> {status} {body!r}")

            status, body = fetch(base + "/varz")
            if status != 200:
                return fail(proc, f"/varz -> {status}")
            varz = json.loads(body)
            epoch = varz.get("epoch")
            if not isinstance(epoch, dict):
                return fail(proc, f"/varz lacks epoch object: {body[:200]}")
            for field in ("current", "readers", "lag", "published_total"):
                if field not in epoch:
                    return fail(proc, f"epoch object lacks {field!r}: {epoch}")
            # Serve publishes at least the initial snapshot before the
            # listening line appears.
            if int(epoch["current"]) < 1:
                return fail(proc, f"epoch.current={epoch['current']}, want >=1")

            status, body = fetch(base + "/timeseries")
            if status != 200:
                return fail(proc, f"/timeseries -> {status}")
            timeseries = json.loads(body)
            if timeseries.get("running") is not True:
                return fail(proc, f"/timeseries sampler not running: "
                                  f"{body[:200]}")
            if "series" not in timeseries or "tiers" not in timeseries:
                return fail(proc, f"/timeseries lacks series/tiers: "
                                  f"{body[:200]}")

            status, body = fetch(base + "/statz")
            if status != 200:
                return fail(proc, f"/statz -> {status}")
            statz = json.loads(body)
            for field in ("qps", "health", "sampler", "phases", "profiler"):
                if field not in statz:
                    return fail(proc, f"/statz lacks {field!r}: {body[:200]}")
            profiler = statz["profiler"]
            if profiler.get("running") is not True:
                return fail(proc, f"serve did not start the wall profiler: "
                                  f"{profiler}")

            # The continuous profiler: folded stacks, one
            # `frame[;frame...] <count>` per line.
            status, body = fetch(base + "/profilez")
            if status != 200:
                return fail(proc, f"/profilez -> {status}")
            for line in body.splitlines():
                if not line:
                    continue
                stack, _, count = line.rpartition(" ")
                if not stack or not count.isdigit() or int(count) < 1:
                    return fail(proc, f"/profilez line not folded-stack "
                                      f"format: {line!r}")

            # The operator dashboard end to end: one non-interactive
            # frame against the live server.
            top = subprocess.run([admin, "top", f"127.0.0.1:{port}",
                                  "--once"],
                                 capture_output=True, text=True, timeout=30)
            if top.returncode != 0:
                return fail(proc, f"top --once exited {top.returncode}\n"
                                  f"{top.stdout}\n{top.stderr}")
            if "health" not in top.stdout:
                return fail(proc, f"top --once output lacks health line:\n"
                                  f"{top.stdout}")

            # The flamegraph-export path end to end: one cumulative
            # profile fetch. Retried briefly — the 97 Hz sampler may
            # not have captured its first stack yet on a slow host.
            for attempt in range(10):
                prof = subprocess.run([admin, "profile",
                                       f"127.0.0.1:{port}", "--once"],
                                      capture_output=True, text=True,
                                      timeout=30)
                if prof.returncode == 0:
                    break
                time.sleep(0.5)
            if prof.returncode != 0:
                return fail(proc, f"profile --once exited "
                                  f"{prof.returncode}\n{prof.stdout}\n"
                                  f"{prof.stderr}")
            folded = [l for l in prof.stdout.splitlines() if l.strip()]
            if not folded:
                return fail(proc, "profile --once printed no stacks")
            for line in folded:
                stack, _, count = line.rpartition(" ")
                if not stack or not count.isdigit():
                    return fail(proc, f"profile --once line not folded-"
                                      f"stack format: {line!r}")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    print("PASS: listening-line handshake, /healthz, /varz epoch object, "
          "/timeseries, /statz phases+profiler, /profilez, top --once, "
          "profile --once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
