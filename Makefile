# Convenience targets; `make check` is the CI gate (scripts/check.sh).

.PHONY: check build test bench fmt

check:
	sh scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem .

fmt:
	gofmt -w .
