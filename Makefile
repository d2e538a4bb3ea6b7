# Tier-1 verification entry point (see ROADMAP.md): `make ci` is what a
# reviewer runs to accept a change.

GO ?= go

.PHONY: ci fmt vet lint build examples sessionbench-test test race race-wake bench bench-short run-bench clean

ci: fmt vet lint build examples sessionbench-test race race-wake bench-short

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Static passes over the runtime packages (see cmd/legato-lint): ignored
# error returns, wall-clock reads in fleet-time code, and operator output
# (fmt/log printing) that should flow through the event bus instead.
lint:
	$(GO) run ./cmd/legato-lint

build:
	$(GO) build ./...

# The public-API examples, run end to end; each exits nonzero on any
# failure it detects.
EXAMPLES = quickstart multijob secure-iot resilient powercap hedging

examples:
	@for ex in $(EXAMPLES); do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

# The session benchmark's own suite (its own module): among others, it
# checks bit for bit that a replay through timing wrappers, which poll the
# governor's operating points on every event, equals the public run, which
# polls only after a move.
sessionbench-test:
	cd sessionbench && $(GO) test .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The ledgers' park/wake protocol under the race detector, 20 times over: a
# lost wake-up shows as a hang, a data race as a report.
race-wake:
	$(GO) test -race -count=20 -run 'Wake|Park|Changed|Fleet|Ledger' ./internal/engine ./internal/power ./internal/taskrt

# One iteration of every benchmark — smoke-checks the experiment
# harness plus the E11 >= 2x throughput, E12 <= 1.5x inflation,
# E13 power-cap/EDP, and observer-overhead (armed-idle bus within 3%
# of the bus-free baseline) gates without a full run.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x ./...

# Regenerate every paper table/figure (add QUICK=1 for smaller sweeps).
run-bench:
	$(GO) run ./cmd/legato-bench $(if $(QUICK),-quick)

clean:
	$(GO) clean ./...
