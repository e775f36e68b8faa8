# Developer entry points.  The repository is pure Python with no
# compiled artifacts; these targets just wrap the common commands.

PYTHON ?= python

.PHONY: install test analyze bench bench-show examples \
	docs smoke all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
		$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Concurrency/invariant analysis of the repo's own source (the CI gate),
# plus the whole package's cycle-free lock-order assertion.
analyze:
	$(PYTHON) -m repro analyze --fail-on warning
	$(PYTHON) -m repro analyze --lock-graph src/repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-show:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script > /dev/null; done; \
		echo "all examples ran"

docs:
	$(PYTHON) -c "from repro.core import render_markdown; \
from repro.domains.crypto import build_crypto_layer; \
open('docs/crypto_layer.md', 'w').write(\
render_markdown(build_crypto_layer(768)))"

smoke:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro fig12

all: test bench examples
