GO ?= go

.PHONY: all build test race lint vet-lint clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the project's own analyzer suite (determinism, lock
# discipline, typed errors, WAL/snapshot ordering) over the whole tree.
lint:
	$(GO) run ./cmd/cqadslint ./...

# vet-lint exercises the same suite through go vet's unitchecker
# protocol, the way CI wires it.
vet-lint:
	$(GO) build -o bin/cqadslint ./cmd/cqadslint
	$(GO) vet -vettool=$(CURDIR)/bin/cqadslint ./...

clean:
	rm -rf bin
