"""eiszeta: critical Eisenstein points of the tame-level-1 eigencurve and the
Kubota-Leopoldt p-adic zeta function on weight space."""

# every layer, leaf-first: perfbench times setup at `import eiszeta`; leaf-first keeps peak RSS low
from . import padic, characters, bernoulli, kubota, qexp, archorders, analyzer
