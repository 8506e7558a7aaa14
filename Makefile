# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); the vet cache lives in .vetcache and is
# content-addressed, so it is always safe to keep or delete.

VETCACHE := .vetcache

.PHONY: build test race chaos vet vet-cold bench fmt

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The CI chaos step: deterministic fault schedules and elastic recovery
# over in-memory pipes and loopback sockets, under the race detector.
chaos:
	go test -race -count=1 -run 'TestChaosSuiteAcrossBackends|TestRunElastic' ./internal/train
	go test -race -count=1 -run 'TestRunElastic' ./internal/tcpnet
	go test -race -count=1 -run 'TestLocalElastic|TestElasticSurvivesSIGKILL|TestChaosConnFrameAlignment' ./internal/tcpnet

# Incremental vet: only packages whose sources, analyzer suite, or
# dependency export data changed since the last run are re-analyzed.
vet:
	go run ./cmd/spardl-vet -cache $(VETCACHE) ./...

# Cold vet: re-analyze everything, bypassing the cache (what the nightly
# vet-full CI job runs).
vet-cold:
	go run ./cmd/spardl-vet ./...

bench:
	go test -run '^$$' -bench 'BenchmarkReduceOnce$$' -benchmem -benchtime 20x .

fmt:
	gofmt -w .
