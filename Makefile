# Development entry points. `make ci` is the full gate a change must pass;
# the individual targets exist for quick iteration.

GO ?= go

.PHONY: all build vet test race race-harness bench-gate golden tracestat-golden resume-smoke ipexd-smoke obs-smoke remote-smoke lint fuzz ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the crash-safety layer (worker pool, supervisor,
# journal, cell plumbing) and the remote-execution client + chaos proxy
# (hedge races, breaker transitions, concurrent fault injection). `make
# race` covers these too; this is the quick iteration loop while touching
# the harness.
race-harness:
	$(GO) test -race -count=2 ./internal/harness ./internal/experiments \
		./internal/remote ./internal/faultnet

# Performance gate, paired against the parent commit on this machine: the
# internal/nvp benchmarks are built from HEAD~ (unpacked with git archive,
# so .git gains no worktree) and from the working tree, and
# BenchmarkLoops/fast and /fast-nopf run in 10 pairs, alternating which side
# goes first. It fails when either sub-benchmark's median head/base insts/s
# ratio is below 0.90 (a >10% throughput regression) or any head run
# allocates. Absolute throughput does not transfer between machines, and a
# single pair can swing by ±20% on a shared VM; a median of ten
# same-machine ratios holds still.
bench-gate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git rev-parse -q --verify 'HEAD~^{commit}' >/dev/null \
		|| { echo "bench-gate: no parent commit HEAD~ to compare against"; exit 1; }; \
	mkdir $$tmp/base && git archive HEAD~ | tar -x -C $$tmp/base || exit 1; \
	(cd $$tmp/base && $(GO) test -c -o $$tmp/base.test ./internal/nvp) || exit 1; \
	$(GO) test -c -o $$tmp/head.test ./internal/nvp || exit 1; \
	run() { \
		pair=$$1; side=$$2; dir=internal/nvp; [ $$side = base ] && dir=$$tmp/base/internal/nvp; \
		(cd $$dir && $$tmp/$$side.test -test.run '^$$' -test.bench 'BenchmarkLoops/^fast' \
			-test.benchtime 1s -test.benchmem -test.timeout 2m) >$$tmp/out 2>&1 \
			|| { echo "bench-gate: $$side benchmark run failed:"; cat $$tmp/out; exit 1; }; \
		awk -v p=$$pair -v s=$$side '/^BenchmarkLoops\// { \
			n = $$1; sub(/^BenchmarkLoops\//, "", n); sub(/-[0-9]+$$/, "", n); ips = "?"; allocs = "?"; \
			for (i = 2; i < NF; i++) { if ($$(i+1) == "insts/s") ips = $$i; if ($$(i+1) == "allocs/op") allocs = $$i } \
			print p, s, n, ips, allocs }' $$tmp/out >>$$tmp/runs; \
	}; \
	pairs=10; p=1; while [ $$p -le $$pairs ]; do \
		if [ $$((p % 2)) -eq 1 ]; then run $$p base && run $$p head || exit 1; \
		else run $$p head && run $$p base || exit 1; fi; \
		p=$$((p+1)); done; \
	fail=0; \
	awk '$$2 == "head" && $$5 != "0" { print "bench-gate: " $$3 ": head run of pair " $$1 " reports " $$5 " allocs/op, want 0"; bad = 1 } \
		END { exit bad }' $$tmp/runs || fail=1; \
	for n in fast fast-nopf; do \
		awk -v n=$$n '$$3 == n { ips[$$1 " " $$2] = $$4 } \
			END { for (k in ips) { split(k, f, " "); b = f[1] " base"; \
				if (f[2] == "head" && (b in ips) && ips[b] > 0) print ips[k] / ips[b] } }' $$tmp/runs \
			| sort -g >$$tmp/ratios; \
		awk -v n=$$n -v want=$$pairs '{ r[NR] = $$1 } END { \
			if (NR != want) { printf "bench-gate: %s: %d of %d pairs measured\n", n, NR, want; exit 1 } \
			med = (r[5] + r[6]) / 2; \
			printf "bench-gate: %s: head/base insts/s over %d pairs: median %.3f, quartiles %.3f-%.3f\n", n, NR, med, r[3], r[8]; \
			if (med < 0.90) { printf "bench-gate: %s: median ratio %.3f is below 0.90 (a >10%% regression against HEAD~)\n", n, med; exit 1 } }' \
			$$tmp/ratios || fail=1; \
	done; \
	exit $$fail

# The golden gates: simulator results must stay bit-identical to
# testdata/golden_rfhome.json (captured before the hot-loop optimization),
# and the cell-key schema must stay byte-identical to the pinned keys every
# journal, result cache and fleet server files results under.
golden:
	$(GO) test -run TestGoldenDeterminism .
	$(GO) test -run TestCellKeysPinned ./internal/experiments

# The trace-analyzer golden gate: tracestat's rendered report for a pinned
# traced run must stay byte-identical to its committed fixture (regenerate
# with `go test ./internal/tracestat -run TestGoldenReport -update`).
tracestat-golden:
	$(GO) test -run TestGoldenReport ./internal/tracestat

# Resume smoke: run–interrupt–resume–diff against the real binary, in two
# rounds: Figure 11, and the whole suite on two apps (340 cells over 226
# distinct keys). The resumed sweep's -json output must be byte-identical
# to an uninterrupted run (the tentpole guarantee of the crash-safe
# harness), and the uninterrupted suite must report shared cells: each
# distinct cell is simulated once per sweep, beneath the journal.
resume-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	round() { \
		name=$$1; stop=$$2; shift 2; \
		$$tmp/experiments "$$@" -journal $$tmp/$$name-golden.jsonl \
			>$$tmp/$$name-golden.json 2>$$tmp/$$name-golden.log \
			|| { cat $$tmp/$$name-golden.log; exit 1; }; \
		$$tmp/experiments "$$@" -journal $$tmp/$$name.jsonl -interrupt-after $$stop \
			>$$tmp/$$name-partial.json 2>$$tmp/$$name-interrupt.log; \
		status=$$?; \
		if [ $$status -ne 130 ]; then \
			echo "resume-smoke: $$name: interrupted run exited $$status, want 130"; \
			cat $$tmp/$$name-interrupt.log; exit 1; \
		fi; \
		$$tmp/experiments "$$@" -journal $$tmp/$$name.jsonl -resume >$$tmp/$$name-resumed.json || exit 1; \
		diff -u $$tmp/$$name-golden.json $$tmp/$$name-resumed.json \
			|| { echo "resume-smoke: $$name: resumed output differs from golden"; exit 1; }; \
		echo "resume-smoke: $$name: resumed sweep is byte-identical to the uninterrupted golden"; \
	}; \
	round fig11 2 -exp fig11 -scale 0.02 -apps fft,gsme -json; \
	round all 100 -all -scale 0.02 -apps fft,gsme -json; \
	grep -Eq '^supervision: [0-9]+ cell\(s\) executed \([1-9][0-9]* shared\)' $$tmp/all-golden.log \
		|| { echo "resume-smoke: all: the uninterrupted suite shared no cell:"; cat $$tmp/all-golden.log; exit 1; }; \
	grep '^supervision:' $$tmp/all-golden.log

# Service smoke: start a real ipexd, prove the miss-then-hit contract over
# HTTP (second identical request is a cache hit, byte-identical to the fresh
# response), then SIGINT it and require a clean drain (exit 0). A restart on
# the same -cache-dir must then answer the request from the disk tier
# (hit-disk), byte-identical again, and drain cleanly too.
ipexd-smoke:
	@tmp=$$(mktemp -d); pid=; trap 'kill -9 $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	start() { \
		$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/cache 2>$$tmp/log & \
		pid=$$!; \
		addr=""; i=0; while [ $$i -lt 100 ]; do \
			addr=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/log); \
			[ -n "$$addr" ] && return 0; \
			kill -0 $$pid 2>/dev/null || { echo "ipexd-smoke: server died at startup:"; cat $$tmp/log; return 1; }; \
			sleep 0.1; i=$$((i+1)); done; \
		echo "ipexd-smoke: server never announced its address"; cat $$tmp/log; return 1; \
	}; \
	drain() { \
		kill -INT $$pid; wait $$pid; status=$$?; pid=; \
		[ $$status -eq 0 ] || { echo "ipexd-smoke: $$1 drain exited $$status, want 0"; cat $$tmp/log; return 1; }; \
	}; \
	req='{"app":"fft","scale":0.02,"config":{"IPEXInst":true,"IPEXData":true,"IPEX":{"Enabled":true}}}'; \
	run() { \
		curl -sfS -D $$tmp/h$$1 -o $$tmp/b$$1 -X POST "http://$$addr/v1/run" -d "$$req" \
			|| { echo "ipexd-smoke: request $$1 failed"; return 1; }; \
		grep -qi "^X-Ipex-Cache: $$2[[:space:]]*$$" $$tmp/h$$1 \
			|| { echo "ipexd-smoke: request $$1 was not $$2:"; cat $$tmp/h$$1; return 1; }; \
	}; \
	start || exit 1; \
	run 1 miss || exit 1; \
	run 2 hit || exit 1; \
	cmp -s $$tmp/b1 $$tmp/b2 \
		|| { echo "ipexd-smoke: cache hit is not byte-identical to the fresh response"; exit 1; }; \
	drain first || exit 1; \
	start || exit 1; \
	run 3 hit-disk || exit 1; \
	cmp -s $$tmp/b1 $$tmp/b3 \
		|| { echo "ipexd-smoke: disk hit after a restart is not byte-identical to the fresh response"; exit 1; }; \
	drain restarted || exit 1; \
	echo "ipexd-smoke: miss-then-hit byte-identical; restart served hit-disk byte-identical; SIGINT drained cleanly twice"

# Observability smoke: a real sweep under -listen and a real ipexd, scraped
# live over HTTP. The sweep's /metrics must expose the cell-lifecycle
# latency histograms and render through ipextop; its -json output must stay
# byte-identical to a run with telemetry off (observing a sweep never
# perturbs its results). ipexd's /metrics must expose request-latency
# buckets and the derived cache gauges after a miss-then-hit pair.
obs-smoke:
	@tmp=$$(mktemp -d); pid=; dpid=; \
	trap 'kill -9 $$pid $$dpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	$(GO) build -o $$tmp/ipextop ./cmd/ipextop || exit 1; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	args="-exp fig11 -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$args >$$tmp/golden.json || exit 1; \
	$$tmp/experiments $$args -listen 127.0.0.1:0 -telemetry-linger 5s \
		>$$tmp/observed.json 2>$$tmp/sweep.log & pid=$$!; \
	addr=""; i=0; while [ $$i -lt 100 ]; do \
		addr=$$(sed -n 's#^telemetry listening on http://\([^/ ]*\)/metrics.*#\1#p' $$tmp/sweep.log); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "obs-smoke: sweep died at startup:"; cat $$tmp/sweep.log; exit 1; }; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$addr" ] || { echo "obs-smoke: sweep never announced its telemetry address"; cat $$tmp/sweep.log; exit 1; }; \
	$$tmp/ipextop -n 1 "$$addr" >$$tmp/frame.txt \
		|| { echo "obs-smoke: ipextop scrape failed"; cat $$tmp/sweep.log; exit 1; }; \
	grep -q 'harness_attempt_seconds' $$tmp/frame.txt \
		|| { echo "obs-smoke: ipextop frame missing the attempt latency row:"; cat $$tmp/frame.txt; exit 1; }; \
	curl -sfS "http://$$addr/metrics" >$$tmp/scrape.txt \
		|| { echo "obs-smoke: telemetry scrape failed"; exit 1; }; \
	grep -q '^# TYPE ipex_harness_attempt_seconds histogram' $$tmp/scrape.txt \
		|| { echo "obs-smoke: /metrics missing the attempt histogram"; exit 1; }; \
	grep -q '^# TYPE ipex_harness_queue_wait_seconds histogram' $$tmp/scrape.txt \
		|| { echo "obs-smoke: /metrics missing the queue-wait histogram"; exit 1; }; \
	wait $$pid || { echo "obs-smoke: observed sweep failed:"; cat $$tmp/sweep.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/observed.json \
		|| { echo "obs-smoke: telemetry perturbed the sweep results"; exit 1; }; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/cache 2>$$tmp/ipexd.log & dpid=$$!; \
	daddr=""; i=0; while [ $$i -lt 100 ]; do \
		daddr=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/ipexd.log); \
		[ -n "$$daddr" ] && break; \
		kill -0 $$dpid 2>/dev/null || { echo "obs-smoke: ipexd died at startup:"; cat $$tmp/ipexd.log; exit 1; }; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$daddr" ] || { echo "obs-smoke: ipexd never announced its address"; cat $$tmp/ipexd.log; exit 1; }; \
	req='{"app":"fft","scale":0.02,"config":{"IPEXInst":true,"IPEXData":true,"IPEX":{"Enabled":true}}}'; \
	curl -sfS -o /dev/null -X POST "http://$$daddr/v1/run" -d "$$req" || exit 1; \
	curl -sfS -o /dev/null -X POST "http://$$daddr/v1/run" -d "$$req" || exit 1; \
	curl -sfS "http://$$daddr/metrics" >$$tmp/dscrape.txt || exit 1; \
	grep -q '^ipex_ipexd_run_seconds_bucket{le="+Inf"} 2' $$tmp/dscrape.txt \
		|| { echo "obs-smoke: ipexd run latency buckets wrong after 2 requests:"; grep run_seconds $$tmp/dscrape.txt; exit 1; }; \
	grep -q '^ipex_ipexd_cache_hit_ratio 0.5' $$tmp/dscrape.txt \
		|| { echo "obs-smoke: ipexd hit ratio not 0.5 after miss+hit:"; grep hit_ratio $$tmp/dscrape.txt; exit 1; }; \
	kill -INT $$dpid; wait $$dpid \
		|| { echo "obs-smoke: ipexd drain failed"; cat $$tmp/ipexd.log; exit 1; }; \
	echo "obs-smoke: live latency histograms on both endpoints; telemetry left sweep results byte-identical"

# Short fuzzing passes over the untrusted-input surfaces: the simulator
# configuration validator, the harvest-trace parser, the journal line
# parser behind -resume, ipexd's result-cache line verifier, and the
# /v1/run request decoder every ipexd exposes to the network. `go test -fuzz`
# accepts one target per invocation, hence one line each.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) ./internal/nvp/
	$(GO) test -run=NONE -fuzz=FuzzHarvestTraceParse -fuzztime=$(FUZZTIME) ./internal/power/
	$(GO) test -run=NONE -fuzz=FuzzJournalLine -fuzztime=$(FUZZTIME) ./internal/harness/
	$(GO) test -run=NONE -fuzz=FuzzResultLine -fuzztime=$(FUZZTIME) ./internal/resultstore/
	$(GO) test -run=NONE -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/remote/

# Determinism lint: simulator internals must not read the wall clock (Now,
# Since, After, Sleep, or timer construction) or the global math/rand stream
# — both would break replayable, seed-stable results. The documented
# exceptions: internal/harness/watchdog.go (the wall-clock cell backstop and
# retry backoff), internal/trace/clock.go (the one wall-clock Clock
# implementation everything observable injects), internal/remote/clock.go
# (backoff sleeps and the hedge timer), and internal/faultnet/clock.go
# (blackhole hold timing). None of them touch simulated results. Every
# tracked Go file must also be gofmt-clean.
lint: vet
	@bad=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$bad" ]; then \
		echo "lint: files not gofmt-clean (run gofmt -w on them):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'time\.(Now|Since|After|Sleep|NewTimer|NewTicker)' internal/ --include='*.go' \
		| grep -v '^internal/harness/watchdog\.go:' | grep -v '^internal/trace/clock\.go:' \
		| grep -v '^internal/remote/clock\.go:' | grep -v '^internal/faultnet/clock\.go:' \
		| grep -v '_test\.go'); \
	if [ -n "$$bad" ]; then \
		echo "lint: wall-clock use in simulator internals (only the harness watchdog and the per-package clock.go files may):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"math/rand"' internal/ --include='*.go'); \
	if [ -n "$$bad" ]; then \
		echo "lint: math/rand import in internal/ (use the seeded PRNGs in internal/power):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"net/http"' internal/ *.go --include='*.go' \
		| grep -v '^internal/remote/'); \
	if [ -n "$$bad" ]; then \
		echo "lint: net/http outside cmd/ and internal/remote (servers belong to the command layer; the fleet client is the one library whose job is the wire):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"expvar"' . --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build); \
	if [ -n "$$bad" ]; then \
		echo "lint: expvar import (Prometheus text on /metrics is the one metrics export format):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'time\.(Now|Since|After|Sleep|NewTimer|NewTicker)' cmd/ --include='*.go' \
		| grep -v '_test\.go' \
		| grep -vE '^cmd/[a-z]+/main\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "lint: wall-clock use in cmd/ outside process mains (uptime, poll intervals, drain deadlines live in main.go and never touch simulated results; everything else takes a trace.Clock):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'http\.Server|ListenAndServe' internal/ cmd/ *.go --include='*.go' \
		| grep -v '_test\.go' | grep -v '^cmd/internal/httpd/'); \
	if [ -n "$$bad" ]; then \
		echo "lint: http.Server construction outside cmd/internal/httpd (every listener shares its timeouts and graceful-drain contract):"; \
		echo "$$bad"; exit 1; \
	fi

# Remote-execution smoke: a real sweep farmed to a real two-server ipexd
# fleet, each server behind a seeded faultnet chaos proxy (blackholes, 429
# storms, truncation, corruption), with one server SIGKILLed mid-sweep. The
# sweep output must stay byte-identical to the purely local golden, with
# zero failed cells, and the remote summary must show the resilience
# machinery actually fired (hedges under blackholes, remote cells despite
# the kill). Then the sweep process itself is SIGKILLed mid-sweep under
# -servers -journal: a -resume through the surviving server must print the
# local golden byte for byte and replay every journaled cell. A last pass
# against a dead fleet must degrade every cell to local execution — same
# bytes again. Finally an -all sweep through a fresh ipexd must print the
# local bytes and send each distinct cell key once: the client's `remote:
# cells=` equals the number of distinct keys in the sweep's journal.
remote-smoke:
	@tmp=$$(mktemp -d); d1=; d2=; d3=; f1=; f2=; cpid=; \
	trap 'kill -9 $$d1 $$d2 $$d3 $$f1 $$f2 $$cpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	$(GO) build -o $$tmp/faultnet ./cmd/faultnet || exit 1; \
	args="-exp fig11 -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$args >$$tmp/golden.json || exit 1; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/c1 2>$$tmp/d1.log & d1=$$!; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/c2 2>$$tmp/d2.log & d2=$$!; \
	a1=""; a2=""; i=0; while [ $$i -lt 100 ]; do \
		a1=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/d1.log); \
		a2=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/d2.log); \
		[ -n "$$a1" ] && [ -n "$$a2" ] && break; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$a1" ] && [ -n "$$a2" ] \
		|| { echo "remote-smoke: ipexd servers never announced their addresses"; cat $$tmp/d1.log $$tmp/d2.log; exit 1; }; \
	$$tmp/faultnet -listen 127.0.0.1:0 -upstream "$$a1" -seed 11 \
		-blackhole 0.25 -max-hold 2s -reject429 0.15 -truncate 0.1 -corrupt 0.1 2>$$tmp/f1.log & f1=$$!; \
	$$tmp/faultnet -listen 127.0.0.1:0 -upstream "$$a2" -seed 12 \
		-blackhole 0.25 -max-hold 2s -reject429 0.15 -truncate 0.1 -corrupt 0.1 2>$$tmp/f2.log & f2=$$!; \
	p1=""; p2=""; i=0; while [ $$i -lt 100 ]; do \
		p1=$$(sed -n 's#^faultnet listening on \([^ ]*\).*#\1#p' $$tmp/f1.log); \
		p2=$$(sed -n 's#^faultnet listening on \([^ ]*\).*#\1#p' $$tmp/f2.log); \
		[ -n "$$p1" ] && [ -n "$$p2" ] && break; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$p1" ] && [ -n "$$p2" ] \
		|| { echo "remote-smoke: faultnet proxies never announced their addresses"; cat $$tmp/f1.log $$tmp/f2.log; exit 1; }; \
	$$tmp/experiments $$args -servers "http://$$p1,http://$$p2" \
		-remote-retries 8 -hedge-after 100ms -journal $$tmp/sweep.jsonl \
		>$$tmp/remote.json 2>$$tmp/sweep.log & spid=$$!; \
	i=0; while [ $$i -lt 200 ]; do \
		n=$$(wc -l 2>/dev/null <$$tmp/sweep.jsonl) || n=0; \
		[ "$$n" -ge 2 ] && break; \
		kill -0 $$spid 2>/dev/null || break; \
		sleep 0.05; i=$$((i+1)); done; \
	kill -9 $$d1 2>/dev/null; \
	wait $$spid; status=$$?; \
	if [ $$status -ne 0 ]; then \
		echo "remote-smoke: chaos sweep exited $$status"; cat $$tmp/sweep.log; exit 1; \
	fi; \
	diff -u $$tmp/golden.json $$tmp/remote.json \
		|| { echo "remote-smoke: chaos sweep output differs from local golden"; cat $$tmp/sweep.log; exit 1; }; \
	grep -Eq '^remote: cells=[1-9]' $$tmp/sweep.log \
		|| { echo "remote-smoke: no cell executed remotely under chaos:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	grep -Eq ' failed=0 ' $$tmp/sweep.log \
		|| { echo "remote-smoke: chaos sweep failed cells:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	grep -Eq ' hedges=[1-9]' $$tmp/sweep.log \
		|| { echo "remote-smoke: blackholes never triggered a hedge:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	cargs="-exp fig11 -scale 1 -apps fft,gsme,qsort,jpegd -json"; \
	$$tmp/experiments $$cargs >$$tmp/cgolden.json || exit 1; \
	$$tmp/experiments $$cargs -parallelism 1 -servers "http://$$a2" -journal $$tmp/crash.jsonl \
		>/dev/null 2>$$tmp/crash.log & cpid=$$!; \
	i=0; while [ $$i -lt 400 ]; do \
		n=$$(wc -l 2>/dev/null <$$tmp/crash.jsonl) || n=0; \
		[ "$$n" -ge 3 ] && break; \
		kill -0 $$cpid 2>/dev/null || break; \
		sleep 0.02; i=$$((i+1)); done; \
	kill -9 $$cpid 2>/dev/null \
		|| { echo "remote-smoke: sweep finished before the kill -9; nothing to resume"; cat $$tmp/crash.log; exit 1; }; \
	wait $$cpid 2>/dev/null; cpid=; \
	$$tmp/experiments $$cargs -servers "http://$$a2" -journal $$tmp/crash.jsonl -resume \
		>$$tmp/cresumed.json 2>$$tmp/cresume.log \
		|| { echo "remote-smoke: resume after kill -9 failed"; cat $$tmp/cresume.log; exit 1; }; \
	diff -u $$tmp/cgolden.json $$tmp/cresumed.json \
		|| { echo "remote-smoke: remote resume after kill -9 differs from local golden"; cat $$tmp/cresume.log; exit 1; }; \
	n=$$(sed -n 's#^resuming .*: \([0-9]*\) journaled cell(s) will replay.*#\1#p' $$tmp/cresume.log); \
	[ -n "$$n" ] && [ "$$n" -ge 1 ] \
		|| { echo "remote-smoke: resume announced no journaled cells:"; cat $$tmp/cresume.log; exit 1; }; \
	grep -q " $$n replayed," $$tmp/cresume.log \
		|| { echo "remote-smoke: resume did not replay all $$n journaled cells:"; cat $$tmp/cresume.log; exit 1; }; \
	grep -Eq '^remote: cells=[1-9][0-9]* fallback=0 unroutable=0 failed=0 ' $$tmp/cresume.log \
		|| { echo "remote-smoke: resume did not finish the sweep on the fleet:"; cat $$tmp/cresume.log; exit 1; }; \
	$$tmp/experiments $$args -servers http://127.0.0.1:1 -remote-retries 1 \
		>$$tmp/down.json 2>$$tmp/down.log \
		|| { echo "remote-smoke: dead-fleet sweep failed"; cat $$tmp/down.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/down.json \
		|| { echo "remote-smoke: dead-fleet sweep output differs from local golden"; exit 1; }; \
	grep -Eq '^remote: cells=0 (fallback=[1-9]|fallback=0 unroutable=[1-9])' $$tmp/down.log \
		|| { echo "remote-smoke: dead fleet did not degrade to local:"; grep '^remote:' $$tmp/down.log; exit 1; }; \
	kargs="-all -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$kargs >$$tmp/kgolden.json || exit 1; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/c3 2>$$tmp/d3.log & d3=$$!; \
	a3=""; i=0; while [ $$i -lt 100 ]; do \
		a3=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/d3.log); \
		[ -n "$$a3" ] && break; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$a3" ] || { echo "remote-smoke: fresh ipexd never announced its address"; cat $$tmp/d3.log; exit 1; }; \
	$$tmp/experiments $$kargs -servers "http://$$a3" -journal $$tmp/keys.jsonl \
		>$$tmp/keys.json 2>$$tmp/keys.log \
		|| { echo "remote-smoke: -all sweep through a fresh ipexd failed"; cat $$tmp/keys.log; exit 1; }; \
	diff -u $$tmp/kgolden.json $$tmp/keys.json \
		|| { echo "remote-smoke: -all sweep through a fresh ipexd differs from local"; cat $$tmp/keys.log; exit 1; }; \
	keys=$$(grep -o '"key":"[^"]*"' $$tmp/keys.jsonl | sort -u | wc -l); \
	grep -Eq "^remote: cells=$$keys fallback=0 " $$tmp/keys.log \
		|| { echo "remote-smoke: want one request per distinct key ($$keys):"; grep '^remote:' $$tmp/keys.log; exit 1; }; \
	echo "remote-smoke: chaos + server SIGKILL sweep byte-identical to local; sweep SIGKILL resumed byte-identical through the fleet; dead fleet degraded cleanly; -all sent $$keys distinct keys once each"

ci: build lint race golden tracestat-golden resume-smoke ipexd-smoke obs-smoke remote-smoke fuzz bench-gate
	$(GO) test -run=NONE -bench=BenchmarkFig10 -benchtime=1x ./...

clean:
	$(GO) clean -testcache
