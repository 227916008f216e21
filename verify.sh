#!/usr/bin/env bash
# Repo verification gate. Runs, in order:
#   1. gofmt -l (tree must be gofmt-clean)
#   2. go vet ./...
#   3. go build ./...; then go vet and go build in the separate bench/
#      module (sparselr/bench), which ./... at the root never compiles
#      but which imports internal/ and which the benchmark driver runs
#   4. go test ./...           (tier-1), then a short FuzzSpec run over
#      the daemon's submit path (parse -> Validate -> Key)
#   5. go test -race over the packages with parallel kernels, the
#      fault-injection paths, the sketch layer, the core dispatch
#      (every loop solve runs on a rank goroutine), the serving layer
#      (the >=32-concurrent-client daemon acceptance test) and the
#      metrics writer internal/prom (recording while rendering), under a
#      watchdog -timeout so a deadlock regression fails the gate
#      instead of hanging it
#   6. seed-drift gate: the solver outputs must hash to the golden values
#      in seeddrift_test.go so published seed results stand, at
#      GOMAXPROCS 1, 2 and 4 so a thread-count-dependent golden fails on
#      every host
#   7. doc-link check: relative links in *.md must resolve
#   8. godoc-presence gate: every package must carry a package-level
#      doc comment (go doc works everywhere)
#   9. factor-layout gate: outside internal/core/factors.go no non-test
#      Go file tests a result field (`.LU != nil`, `.QB != nil`, ...), so
#      the factor table (core.Approximation.Factors) stays the one code
#      that knows each method's factors, and TrueError, Reconstruct and
#      the exports derive every product from it
#  10. LRU gate: container/list is imported only by
#      internal/serve/lru.go, so the memory and disk cache tiers keep
#      one byte-budgeted LRU
#  11. run-path gate: internal/core calls dist.RunRoot in exactly one
#      non-test place, so every method keeps going through the one
#      dispatch in core.Approximate and no second run path comes back
#  12. range-finder gate: no non-test Go file in internal/cur
#      references the sketch package (`sketch.`), so CUR and ID2 keep
#      taking their basis from RandQB_EI's one loop and no second range
#      finder comes back
#  13. daemon smoke test: build cmd/lowrankd, boot it on an ephemeral
#      port, submit a workload twice (cold solve then cache hit),
#      SIGTERM-drain cleanly -> BENCH_serve.json (cold vs cached
#      latency, cached requests/sec)
#  14. fleet smoke test: build cmd/lowrankd + cmd/lowrank-gateway, boot
#      a two-shard fleet behind the gateway, assert exactly-once
#      fleet-wide dedup, peer cache fill, kill-mid-wave rerouting and
#      warm restart from -cachedir -> gateway req/s and peer-fill hit
#      rate merged into BENCH_serve.json
#  15. kernel micro-benchmarks -> BENCH_kernels.json (ns/op, bytes/op and
#      allocs/op per kernel); the GOMAXPROCS=1 twins
#      KernelQRTournamentSerial, KernelSolveLUCRTPSerial,
#      KernelSolveILUTCRTPSerial, KernelSolveRandQBEISerial and
#      KernelSolveRandUBVSerial, and the serial KernelCOLAMDOrdering,
#      must allocate <= 1.05x the bytes/op of
#      the committed file on any CPU count, and KernelSpMMT must stay
#      within 0.9x of its serial twin on the medians of 5 alternating
#      runs of both
#  16. dist collective micro-benchmarks (traced vs untraced) -> BENCH_dist.json
#  17. sketch micro-benchmarks -> BENCH_sketch.json (ns/op + allocs/op),
#      asserting 0 allocs/op on the Gaussian/SparseSign apply paths and
#      SparseSign apply >= 3x faster than Gaussian on the medians of 5
#      alternating runs of both
#  18. skeleton-method gate: re-run the internal/cur fixed-precision
#      acceptance test (all three variants reach tau on Table I with the
#      exact streamed residual), then the CUR/ID2/ACA-vs-RandQB_EI
#      micro-benchmarks -> BENCH_cur.json (ns/op + resident factor
#      bytes). The factor-bytes ratio gates unconditionally (CUR must
#      stay >= 4x below the dense QB frame — it is deterministic);
#      wall-clock ratios gate only on >= 4-CPU machines
#  19. (-soak / SOAK=1 only) chaos soak: 3 lowrankd shards with
#      owner-set replication (R=2) behind the gateway, a seeded
#      ChaosPlan SIGKILLing/restarting shards under a duplicate-heavy
#      workload; asserts zero client-visible 5xx, exactly-once solving
#      (metrics reconciliation) and warm-replica reads after every
#      kill -> replica-read rate merged into BENCH_serve.json. The
#      deterministic fake-clock walk of the same plan shape
#      (TestChaosPlanFakeClockWalk) always runs in step 5 under -race;
#      the soak adds the real-process run.
#
# Environment knobs:
#   SKIP_BENCH=1    skip steps 13-18
#   SOAK=1          run step 19 (also enabled by a -soak argument)
#   BENCHTIME=...   per-benchmark budget for steps 15-18 (default 200ms)
#   TESTTIMEOUT=... watchdog for steps 4-6, 13-14 and 19 (default 10m)
set -euo pipefail
cd "$(dirname "$0")"

for arg in "$@"; do
    case "$arg" in
        -soak|--soak) SOAK=1 ;;
        *) echo "verify.sh: unknown argument $arg" >&2; exit 2 ;;
    esac
done

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    exit 1
fi
echo "gofmt clean"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== bench module: go vet ./... && go build ./..."
(cd bench && go vet ./... && go build ./...)

echo "== go test ./..."
go test -timeout "${TESTTIMEOUT:-10m}" ./...

echo "== FuzzSpec (submit body -> Validate -> Key, 5s)"
go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 5s -parallel 2 ./internal/serve

echo "== go test -race (kernel + fault-injection + core + serving + metrics packages, watchdog timeout)"
go test -race -timeout "${TESTTIMEOUT:-10m}" \
    ./internal/mat ./internal/sparse ./internal/sketch ./internal/cur ./internal/core ./internal/serve ./internal/fleet ./internal/prom ./internal/qrtp \
    ./internal/dist/... ./internal/randqb/... ./internal/randubv/... ./internal/lucrtp/... ./internal/rsvd

echo "== seed-drift gate (bit-identity vs golden hashes at GOMAXPROCS 1, 2, 4)"
go test -timeout "${TESTTIMEOUT:-10m}" -run '^TestSeedDrift' -count=1 -cpu 1,2,4 -v . | grep -E '^(--- |ok|FAIL)'

echo "== doc-link check (*.md relative links)"
bad=0
while IFS=: read -r file link; do
    # Strip any #anchor and URL-style artifacts.
    target="${link%%#*}"
    [[ -z "$target" ]] && continue
    case "$target" in
        http://*|https://*|mailto:*) continue ;;
    esac
    if [[ ! -e "$(dirname "$file")/$target" ]]; then
        echo "dead link in $file: $link"
        bad=1
    fi
done < <(grep -RIno --include='*.md' -oE '\]\([^)]+\)' . 2>/dev/null \
          | grep -v '^\./\.git/' \
          | sed -E 's/^([^:]+):[0-9]+:\]\(([^)]*)\)/\1:\2/' \
          | sort -u)
if [[ "$bad" != "0" ]]; then
    echo "verify.sh: dead doc links"
    exit 1
fi
echo "doc links OK"

echo "== godoc-presence gate (every package documents itself)"
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [[ -n "$undocumented" ]]; then
    echo "packages without a package-level doc comment:"
    echo "$undocumented"
    exit 1
fi
echo "godoc coverage OK"

echo "== factor-layout gate (only internal/core/factors.go switches over the result fields)"
layout=$(grep -rnE --include='*.go' '\.(LU|QB|UBV|SVD|RS|ARRF|CUR) != nil' . \
    | grep -v '_test\.go:' | grep -v '^\./internal/core/factors\.go:' || true)
if [[ -n "$layout" ]]; then
    echo "result-field switches outside internal/core/factors.go (list factors via core.Approximation.Factors):"
    echo "$layout"
    exit 1
fi
echo "factor layout OK"

echo "== LRU gate (container/list only in the shared cache LRU)"
lists=$(grep -rln --include='*.go' '"container/list"' . | grep -v '^\./internal/serve/lru\.go$' || true)
if [[ -n "$lists" ]]; then
    echo "container/list imported outside internal/serve/lru.go (use the shared lru index):"
    echo "$lists"
    exit 1
fi
echo "LRU OK"

echo "== run-path gate (internal/core calls dist.RunRoot in exactly one place)"
runs=$(grep -rn --include='*.go' 'dist\.RunRoot(' internal/core | grep -v '_test\.go:' || true)
if [[ $(grep -c . <<<"$runs") != 1 ]]; then
    echo "internal/core must call dist.RunRoot exactly once (core.Approximate's one run path), found:"
    echo "${runs:-none}"
    exit 1
fi
echo "run path OK"

echo "== range-finder gate (internal/cur draws no sketch of its own)"
sketches=$(grep -rn --include='*.go' 'sketch\.' internal/cur | grep -v '_test\.go:' || true)
if [[ -n "$sketches" ]]; then
    echo "internal/cur references the sketch package (CUR/ID2 take their basis from randqb.FactorDist):"
    echo "$sketches"
    exit 1
fi
echo "range finder OK"

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo "== daemon smoke test (cold solve -> cache hit -> clean drain)"
    BENCH_SERVE_OUT="$PWD/BENCH_serve.json" \
        go test -run '^TestDaemonSmoke$' -count=1 -timeout "${TESTTIMEOUT:-10m}" -v ./cmd/lowrankd \
        | grep -E '^(=== RUN|--- |ok|FAIL|    smoke)'
    echo "wrote BENCH_serve.json"

    echo "== fleet smoke test (2 shards + gateway: exactly-once, peer fill, kill/reroute, warm restart)"
    BENCH_SERVE_OUT="$PWD/BENCH_serve.json" \
        go test -run '^TestFleetSmoke$' -count=1 -timeout "${TESTTIMEOUT:-10m}" -v ./cmd/lowrank-gateway \
        | grep -E '^(=== RUN|--- |ok|FAIL|    smoke)'
    echo "merged fleet metrics into BENCH_serve.json"

    echo "== kernel micro-benchmarks (with bytes/op and parallel-vs-serial speedup gates)"
    # committed_bytes prints the bytes/op of one benchmark in the committed
    # BENCH_kernels.json; outside a git checkout, or while the commit
    # predates the benchmark, in the working copy.
    committed_bytes() {
        local pat="s/^  \"$1\": \{.*\"bytes_per_op\": ([0-9]+).*/\1/p" v
        v=$(git show HEAD:BENCH_kernels.json 2>/dev/null | sed -nE "$pat")
        [[ -n "$v" ]] || v=$(sed -nE "$pat" BENCH_kernels.json)
        echo "$v"
    }
    base_tourn=$(committed_bytes KernelQRTournamentSerial)
    base_lu=$(committed_bytes KernelSolveLUCRTPSerial)
    base_ilut=$(committed_bytes KernelSolveILUTCRTPSerial)
    base_qb=$(committed_bytes KernelSolveRandQBEISerial)
    base_ubv=$(committed_bytes KernelSolveRandUBVSerial)
    base_colamd=$(committed_bytes KernelCOLAMDOrdering)
    out=$(go test -run '^$' -bench '^BenchmarkKernel' -benchmem -benchtime "${BENCHTIME:-200ms}" . ./internal/mat | grep -E '^Benchmark')
    echo "$out"
    echo "$out" | awk -v ncpu="$(nproc 2>/dev/null || echo 1)" -v base_tourn="$base_tourn" -v base_lu="$base_lu" -v base_ilut="$base_ilut" -v base_qb="$base_qb" -v base_ubv="$base_ubv" -v base_colamd="$base_colamd" '
        BEGIN { print "{"; first = 1 }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            sub(/^Benchmark/, "", name)
            if (!first) printf ",\n"
            first = 0
            printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7
            ns[name] = $3; bytes[name] = $5
        }
        # bytesGate fails when a benchmark allocates more than 1.05x its
        # committed bytes/op. It gates GOMAXPROCS=1 twins and serial
        # kernels only: their bytes repeat on any host, while the
        # parallel kernels allocate per-chunk scratch that grows with
        # the CPU count.
        function bytesGate(name, base) {
            if (base == "" || bytes[name] == "") {
                printf "missing bytes/op for %s (committed %s)\n", name, base > "/dev/stderr"; exit 1
            }
            if (bytes[name] > 1.05 * base) {
                printf "%s allocates %s B/op, over 1.05x the committed %s B/op\n", name, bytes[name], base > "/dev/stderr"
                exit 1
            }
        }
        function ratio(label, ser, par) {
            if (ns[ser] > 0 && ns[par] > 0) {
                printf "%s\"%s\": %.3f", sep, label, ns[ser] / ns[par]; sep = ", "
            }
        }
        END {
            # Parallel-vs-serial speedup ratios (serial ns / parallel ns;
            # > 1 means the worker pool wins) plus the MulBT:MulT cost
            # ratio on the comparable 2048*128*128-madd shape.
            printf ",\n  \"_speedups\": {"
            sep = ""
            ratio("gemm512_parallel", "KernelGEMM512Serial", "KernelGEMM512")
            ratio("gemm_odd_parallel", "KernelGEMMOddSerial", "KernelGEMMOdd")
            ratio("mult_parallel", "KernelMulTSerial", "KernelMulT")
            ratio("multwide_parallel", "KernelMulTWideSerial", "KernelMulTWide")
            ratio("mulbt_parallel", "KernelMulBTSerial", "KernelMulBT")
            ratio("spmm_parallel", "KernelSpMMLargeSerial", "KernelSpMMLarge")
            ratio("multdense_parallel", "KernelSpMMTSerial", "KernelSpMMT")
            ratio("sketch_apply_parallel", "KernelSketchApplySerial", "KernelSketchApply")
            ratio("randqbei_e2e", "KernelSolveRandQBEISerial", "KernelSolveRandQBEI")
            ratio("lucrtp_e2e", "KernelSolveLUCRTPSerial", "KernelSolveLUCRTP")
            if (ns["KernelMulT"] > 0 && ns["KernelMulBT"] > 0) {
                printf "%s\"mulbt_over_mult\": %.3f", sep, ns["KernelMulBT"] / ns["KernelMulT"]; sep = ", "
            }
            printf "}\n}\n"
            # Gate 0: the memory footprints of the LU_CRTP tournament
            # workspace, of the COLAMD + postorder ordering, and of the
            # sequential LU_CRTP, ILUT_CRTP, RandQB_EI and RandUBV solves.
            # Deterministic, so it runs first and on any CPU count.
            bytesGate("KernelQRTournamentSerial", base_tourn)
            bytesGate("KernelSolveLUCRTPSerial", base_lu)
            bytesGate("KernelSolveILUTCRTPSerial", base_ilut)
            bytesGate("KernelSolveRandQBEISerial", base_qb)
            bytesGate("KernelSolveRandUBVSerial", base_ubv)
            bytesGate("KernelCOLAMDOrdering", base_colamd)
            # Gate 1: MulBT must stay within 2x of MulT on the comparable
            # shape (it was ~6x before the packed-Bt path).
            if (ns["KernelMulT"] == "" || ns["KernelMulBT"] == "") {
                print "missing KernelMulT/KernelMulBT benchmarks" > "/dev/stderr"; exit 1
            }
            if (ns["KernelMulBT"] > 2 * ns["KernelMulT"]) {
                printf "KernelMulBT (%s ns/op) exceeds 2x KernelMulT (%s ns/op)\n", ns["KernelMulBT"], ns["KernelMulT"] > "/dev/stderr"
                exit 1
            }
            # Parallel-speedup gates need real cores; skipped below 4 CPUs.
            # The note names the deterministic gates that still catch the
            # same regressions on this host.
            if (ncpu + 0 < 4) {
                printf "note: parallel-speedup gates skipped (%d CPUs < 4); still gating: the bytes/op gates of the solve twins above (KernelSolveRandQBEISerial, KernelSolveLUCRTPSerial, ...), the bitwise parallel-vs-serial and 0-allocs tests of step 4 (TestGemmParallelMatchesSerialBitwise, TestSpGEMMParallelMatchesSerialBitwise, TestStepAllocFree, TestSchurWorkspaceWarmAllocs), TestChunksByPrefixBalance for the SpMM nnz balance, and the KernelSpMMT-vs-serial medians below\n", ncpu > "/dev/stderr"
                exit 0
            }
            # Gate 2: parallel GEMM must beat the pinned-GOMAXPROCS=1 run
            # by >= 1.3x at 512^3.
            if (ns["KernelGEMM512"] == "" || ns["KernelGEMM512Serial"] == "") {
                print "missing KernelGEMM512/KernelGEMM512Serial benchmarks" > "/dev/stderr"; exit 1
            }
            if (ns["KernelGEMM512"] * 1.3 > ns["KernelGEMM512Serial"]) {
                printf "KernelGEMM512 (%s ns/op) not >=1.3x faster than serial (%s ns/op)\n", ns["KernelGEMM512"], ns["KernelGEMM512Serial"] > "/dev/stderr"
                exit 1
            }
            # Gate 3: nnz-balanced parallel SpMM must beat its serial twin
            # by >= 1.3x on the 20000-row power-law circuit matrix.
            if (ns["KernelSpMMLarge"] == "" || ns["KernelSpMMLargeSerial"] == "") {
                print "missing KernelSpMMLarge/KernelSpMMLargeSerial benchmarks" > "/dev/stderr"; exit 1
            }
            if (ns["KernelSpMMLarge"] * 1.3 > ns["KernelSpMMLargeSerial"]) {
                printf "KernelSpMMLarge (%s ns/op) not >=1.3x faster than serial (%s ns/op)\n", ns["KernelSpMMLarge"], ns["KernelSpMMLargeSerial"] > "/dev/stderr"
                exit 1
            }
            # Gate 4: the column-strip parallel AtB must at least match its
            # serial twin (it does identical work, split across cores).
            if (ns["KernelSpMMT"] * 1.0 > ns["KernelSpMMTSerial"]) {
                printf "KernelSpMMT (%s ns/op) not >=1.0x of serial (%s ns/op)\n", ns["KernelSpMMT"], ns["KernelSpMMTSerial"] > "/dev/stderr"
                exit 1
            }
            # Gate 5: the end-to-end RandQB_EI solve must show a measurable
            # win from the parallel kernel stack.
            if (ns["KernelSolveRandQBEI"] == "" || ns["KernelSolveRandQBEISerial"] == "") {
                print "missing KernelSolveRandQBEI benchmarks" > "/dev/stderr"; exit 1
            }
            if (ns["KernelSolveRandQBEI"] * 1.05 > ns["KernelSolveRandQBEISerial"]) {
                printf "KernelSolveRandQBEI (%s ns/op) not >=1.05x faster than serial (%s ns/op)\n", ns["KernelSolveRandQBEI"], ns["KernelSolveRandQBEISerial"] > "/dev/stderr"
                exit 1
            }
        }
    ' > BENCH_kernels.json
    echo "wrote BENCH_kernels.json"
    # Gate 1b: the sparse AtB scatter must never lose to its pinned serial
    # twin by more than benchmark noise (the column-strip split makes the
    # serial and parallel paths identical work, so 0.9 is a pure noise
    # floor, not a perf allowance). Single runs of either twin swing by a
    # third on a shared 2-CPU host, so the gate compares the medians of 5
    # runs of each, alternating which twin goes first.
    spmmt_ns() {
        go test -run '^$' -bench "^BenchmarkKernel$1\$" -benchtime "${BENCHTIME:-200ms}" . | awk '/^Benchmark/ { print $3 }'
    }
    par=() ser=()
    for i in 1 2 3 4 5; do
        if (( i % 2 )); then
            par+=("$(spmmt_ns SpMMT)"); ser+=("$(spmmt_ns SpMMTSerial)")
        else
            ser+=("$(spmmt_ns SpMMTSerial)"); par+=("$(spmmt_ns SpMMT)")
        fi
    done
    median5() { printf '%s\n' "$@" | sort -n | sed -n 3p; }
    par_med=$(median5 "${par[@]}") ser_med=$(median5 "${ser[@]}")
    echo "KernelSpMMT median ${par_med} ns/op, KernelSpMMTSerial median ${ser_med} ns/op (5 alternating runs each)"
    if [[ -z "$par_med" || -z "$ser_med" ]] || awk -v p="$par_med" -v s="$ser_med" 'BEGIN { exit !(p * 0.9 > s) }'; then
        echo "KernelSpMMT (median ${par_med} ns/op) regressed below 0.9x of serial (median ${ser_med} ns/op)" >&2
        exit 1
    fi

    echo "== dist collective micro-benchmarks (traced vs untraced)"
    out=$(go test -run '^$' -bench '^BenchmarkDist' -benchtime "${BENCHTIME:-200ms}" ./internal/dist | grep -E '^Benchmark')
    echo "$out"
    echo "$out" | awk '
        BEGIN { print "{"; first = 1 }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            sub(/^Benchmark/, "", name)
            if (!first) printf ",\n"
            first = 0
            printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s}", name, $2, $3
        }
        END { print "\n}" }
    ' > BENCH_dist.json
    echo "wrote BENCH_dist.json"

    echo "== sketch micro-benchmarks (apply + draw, with allocs/op)"
    out=$(go test -run '^$' -bench '^BenchmarkSketch' -benchmem -benchtime "${BENCHTIME:-200ms}" ./internal/sketch | grep -E '^Benchmark')
    echo "$out"
    echo "$out" | awk '
        BEGIN { print "{"; first = 1 }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            sub(/^Benchmark/, "", name)
            if (!first) printf ",\n"
            first = 0
            printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7
            ns[name] = $3; allocs[name] = $7
        }
        END {
            print "\n}"
            # Structured-sketch allocation gate: the Gaussian/SparseSign
            # apply paths must be allocation-free in steady state.
            g = ns["SketchApplyGaussian"]; s = ns["SketchApplySparseSign"]
            if (g == "" || s == "") { print "missing sketch apply benchmarks" > "/dev/stderr"; exit 1 }
            if (allocs["SketchApplyGaussian"] + 0 != 0 || allocs["SketchApplySparseSign"] + 0 != 0) {
                printf "sketch apply allocates: gaussian=%s sparsesign=%s allocs/op\n", allocs["SketchApplyGaussian"], allocs["SketchApplySparseSign"] > "/dev/stderr"
                exit 1
            }
        }
    ' > BENCH_sketch.json
    echo "wrote BENCH_sketch.json"
    # Structured-sketch perf gate: SparseSign apply must beat the
    # Gaussian apply by >= 3x. Single runs swing on a shared 2-CPU host,
    # so, as for KernelSpMMT, the gate compares the medians of 5 runs of
    # each, alternating which apply goes first.
    sketch_ns() {
        go test -run '^$' -bench "^BenchmarkSketchApply$1\$" -benchtime "${BENCHTIME:-200ms}" ./internal/sketch | awk '/^Benchmark/ { print $3 }'
    }
    gauss=() sign=()
    for i in 1 2 3 4 5; do
        if (( i % 2 )); then
            sign+=("$(sketch_ns SparseSign)"); gauss+=("$(sketch_ns Gaussian)")
        else
            gauss+=("$(sketch_ns Gaussian)"); sign+=("$(sketch_ns SparseSign)")
        fi
    done
    gauss_med=$(median5 "${gauss[@]}") sign_med=$(median5 "${sign[@]}")
    echo "SketchApplySparseSign median ${sign_med} ns/op, SketchApplyGaussian median ${gauss_med} ns/op (5 alternating runs each)"
    if [[ -z "$sign_med" || -z "$gauss_med" ]] || awk -v s="$sign_med" -v g="$gauss_med" 'BEGIN { exit !(s * 3 > g) }'; then
        echo "SparseSign apply not >=3x faster than Gaussian: median ${sign_med} vs ${gauss_med} ns/op" >&2
        exit 1
    fi

    echo "== skeleton-method gate (CUR/ID2/ACA fixed-precision accuracy + cost vs RandQB_EI)"
    go test -run '^TestTableIFixedPrecision$' -count=1 -timeout "${TESTTIMEOUT:-10m}" ./internal/cur
    out=$(go test -run '^$' -bench '^BenchmarkCUR' -benchtime "${BENCHTIME:-200ms}" ./internal/cur | grep -E '^Benchmark')
    echo "$out"
    echo "$out" | awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
        BEGIN { print "{"; first = 1 }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            sub(/^Benchmark/, "", name)
            if (!first) printf ",\n"
            first = 0
            printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"factor_bytes\": %s}", name, $2, $3, $5
            ns[name] = $3; fb[name] = $5
        }
        END {
            printf ",\n  \"_ratios\": {"
            sep = ""
            if (fb["CURBaselineQB"] > 0) {
                printf "\"cur_factor_bytes_over_qb\": %.4f", fb["CURFactorCUR"] / fb["CURBaselineQB"]; sep = ", "
            }
            if (ns["CURBaselineQB"] > 0) {
                printf "%s\"cur_wall_over_qb\": %.3f, \"aca_wall_over_qb\": %.3f", sep,
                    ns["CURFactorCUR"] / ns["CURBaselineQB"], ns["CURFactorACA"] / ns["CURBaselineQB"]
            }
            printf "}\n}\n"
            # Gate A (deterministic, always on): the skeleton factor
            # footprint must stay >= 4x below the dense QB frame at the
            # same target — the family exists for this property.
            if (fb["CURFactorCUR"] == "" || fb["CURBaselineQB"] == "") {
                print "missing CUR factor-bytes benchmarks" > "/dev/stderr"; exit 1
            }
            if (fb["CURFactorCUR"] * 4 > fb["CURBaselineQB"]) {
                printf "CUR factor bytes (%s) not >=4x below QB frame (%s)\n", fb["CURFactorCUR"], fb["CURBaselineQB"] > "/dev/stderr"
                exit 1
            }
            # Wall-clock ratio gates need real cores; single-run timing on
            # tiny containers is noise.
            if (ncpu + 0 < 4) {
                printf "note: CUR wall-clock gates skipped (%d CPUs < 4); still gating: the factor-bytes ratio of Gate A above and the TestTableIFixedPrecision re-run (cur, id2 and aca reach tau with the exact residual)\n", ncpu > "/dev/stderr"
                exit 0
            }
            # Gate B: CUR must stay within 6x of the RandQB_EI wall clock
            # at the same tolerance (it trades time for footprint, not
            # unboundedly).
            if (ns["CURFactorCUR"] > 6 * ns["CURBaselineQB"]) {
                printf "CUR wall (%s ns/op) exceeds 6x RandQB_EI (%s ns/op)\n", ns["CURFactorCUR"], ns["CURBaselineQB"] > "/dev/stderr"
                exit 1
            }
            # Gate C: ACA, the most serial of the three, within 20x.
            if (ns["CURFactorACA"] > 20 * ns["CURBaselineQB"]) {
                printf "ACA wall (%s ns/op) exceeds 20x RandQB_EI (%s ns/op)\n", ns["CURFactorACA"], ns["CURBaselineQB"] > "/dev/stderr"
                exit 1
            }
        }
    ' > BENCH_cur.json
    echo "wrote BENCH_cur.json"
fi

if [[ "${SOAK:-0}" == "1" ]]; then
    echo "== chaos soak (3 replicated shards + gateway, seeded SIGKILL plan)"
    LOWRANK_SOAK=1 BENCH_SERVE_OUT="$PWD/BENCH_serve.json" \
        go test -run '^TestFleetSoak$' -count=1 -timeout "${TESTTIMEOUT:-10m}" -v ./cmd/lowrank-gateway \
        | grep -E '^(=== RUN|--- |ok|FAIL|    soak)'
    echo "merged soak metrics into BENCH_serve.json"
fi

echo "verify.sh: OK"
