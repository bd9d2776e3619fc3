# Whether the seed-value system is solvable at every truncation index
# comes down to a sequence of small determinants staying away from zero.
# Empirically they do more than that: their magnitudes grow
# monotonically along parity classes, which is what makes the adaptive
# solver safe to run at any index.  This probe prints the traces so you
# can inspect the pattern yourself.

from ruinwalk import ModelSpec, make_displaced_poisson
from ruinwalk.conjectures import determinant_trace

# s_0 > 0 model: 3x3 difference systems, determinants alternate in sign
model_a = ModelSpec(
    x=make_displaced_poisson(1.0, 0),
    y=make_displaced_poisson(2.0, 0),
)
trace = determinant_trace(model_a, which=1, n_max=12)
print("3x3 trace (both claims can be zero)")
for n, d in enumerate(trace.numerators):
    print(f"  D_{n:<3d} = {d / 2**trace.scale:+.6e}")
print(f"  smallest magnitude: {trace.min_abs:.3f}")
print(f"  magnitudes nondecreasing along parity: {trace.abs_monotone}")
print(f"  recorded deviations from the expected sign pattern: {len(trace.violations)}")
if trace.violations:
    n, why = trace.violations[0]
    print(f"    first: n = {n}, {why}")
print()

# s_0 = 0, s_1 > 0 model: 2x2 systems, determinants stay positive
model_b = ModelSpec(
    x=make_displaced_poisson(1.0, 1),
    y=make_displaced_poisson(1.9, 0),
)
trace = determinant_trace(model_b, which=2, n_max=12)
print("2x2 trace (smallest claim total is 1)")
for n, d in enumerate(trace.numerators):
    print(f"  D_{n:<3d} = {d / 2**trace.scale:+.6e}")
print(f"  smallest magnitude: {trace.min_abs:.3f}")
print(f"  magnitudes nondecreasing: {trace.abs_monotone}")
print(f"  recorded deviations: {len(trace.violations)}")
