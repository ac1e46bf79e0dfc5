#!/usr/bin/env bash
# Runs every gif-lab subcommand under --no-timestamp into the directory $1
# (default cli-out) and prints the SHA-256 digest of every file written
# there, one "digest  ./path" line each, sorted by path.  The two sweeps
# overlap their exact-W2 solves on every usable CPU; each experiment command
# runs a second time under "taskset -c 0", one usable CPU and so one W2
# worker, into "$1-cpu0", and must write the same bytes.
# A paper-gmm8 block runs the sweeps, autoencode and ag-check late into a
# flow whose shifted posterior logits mostly sit far below -700, into
# "$1/paper-gmm8"; its ag-check runs the steps grid as groups of one
# engine pass; its two sweeps also run under "taskset -c 0".  That block and
# the d = 3 gmm block each sample a cloud of several 4 096-particle chunks.
# The digests are compared with the committed manifest, with numpy's
# warnings turned into errors as in the test suite:
#
#   export PYTHONWARNINGS=error::RuntimeWarning,error::DeprecationWarning
#   bash .github/cli-bytes.sh cli-out > cli-bytes.actual
#   diff .github/cli-bytes.sha256 cli-bytes.actual
#
# A change that alters output bytes on purpose regenerates the manifest
# with the first line.
set -euo pipefail
out=${1:-cli-out}
exec 3>&1 1>&2  # the commands' own output goes to stderr, the digests to stdout

printf '%s\n' 'target = moderate-gmm4' 'schedule = linear' 'n = 128' 'steps = 16' \
  'zeta_grid = (0.0, 0.2)' 'eps_grid = (0.5, 1.5)' 'steps_grid = (8, 16)' \
  't_grid = (0.0, 0.5, 1.0)' 'delta = (0.1, 0.0)' \
  'target2 = gaussian' 'mean2 = (0.0, 0.0)' 'var2 = 1.0' > cli-run.cfg
gif-lab sample --config cli-run.cfg --n 512 --seed 3 --no-timestamp --out "$out/sample"
gif-lab flow --config cli-run.cfg --x 0.3,-0.2 --jacobian --logdensity --no-timestamp --out "$out/flow"
gif-lab bounds --schedule linear --case mixture --sigma 0.5 --r 2.0 --grid 9 --no-timestamp --out "$out/bounds"
# a D-only envelope, which diverges at t = 1 where a_t = 0: its last row is inf
gif-lab bounds --schedule linear --case bounded-d --d 1.0 --grid 9 --no-timestamp --out "$out/bounds-d"
# an unbounded support, D = +inf: its t = 0 row, where b_t = 0, reads -1.0 as
# for any finite D, and every later row inf
gif-lab bounds --schedule linear --case bounded-d --d inf --grid 9 --no-timestamp \
  --out "$out/bounds-d-inf"
# a log-lip envelope handed over to the gaussian form at t2 = 0.6
gif-lab bounds --schedule linear --case log-lip --l 0.5 --kappa -0.5 --t2 0.6 --grid 9 \
  --no-timestamp --out "$out/bounds-log-lip"
# the same closed form off the linear schedule, with its default handover time
gif-lab bounds --schedule vp --alpha0 0.8 --p 2 --case log-lip --l 2.0 --kappa -0.4 --grid 9 \
  --no-timestamp --out "$out/bounds-log-lip-vp"
gif-lab validate-schedule --schedule vp --alpha0 0.02 --p 2.0 > "$out/validate-schedule.txt"
for cmd in stability-source stability-velocity autoencode cycle jacobian-envelope ag-check; do
  gif-lab "$cmd" --config cli-run.cfg --no-timestamp --svg --out "$out/$cmd"
done
for cmd in ag-check autoencode cycle stability-source stability-velocity jacobian-envelope; do
  taskset -c 0 gif-lab "$cmd" --config cli-run.cfg --no-timestamp --svg --out "$out-cpu0/$cmd"
  diff -r "$out/$cmd" "$out-cpu0/$cmd"
done

printf '%s\n' 'target = paper-gmm8' 'schedule = linear' 'n = 256' 'steps = 64' \
  'zeta_grid = (0.0, 0.2)' 'eps_grid = (0.5, 1.5)' 'steps_grid = (32, 64)' \
  'delta = (0.05, -0.02)' > cli-run-gmm8.cfg
for cmd in stability-source stability-velocity autoencode ag-check; do
  gif-lab "$cmd" --config cli-run-gmm8.cfg --no-timestamp --svg --out "$out/paper-gmm8/$cmd"
done
for cmd in stability-source stability-velocity; do
  taskset -c 0 gif-lab "$cmd" --config cli-run-gmm8.cfg --no-timestamp --svg \
    --out "$out-cpu0/paper-gmm8/$cmd"
  diff -r "$out/paper-gmm8/$cmd" "$out-cpu0/paper-gmm8/$cmd"
done
# a draw over three chunks of particles, each with rows that the first
# block's words cannot finish
gif-lab sample --config cli-run-gmm8.cfg --n 9000 --no-timestamp --out "$out/paper-gmm8/sample"

# Two gmm blocks whose dimension differs from the component count (and from
# 2), so a cloud stored with its axes swapped inside the engine cannot
# pass: d = 1 with k = 3 into "$out/gmm-d1", d = 3 with k = 5 into
# "$out/gmm-d3".
printf '%s\n' 'target = gmm' 'means = [(-2.0,), (0.5,), (3.0,)]' 'weights = (0.5, 0.3, 0.2)' \
  'sigma = 0.4' 'schedule = linear' 'n = 128' 'steps = 16' 'zeta_grid = (0.0, 0.2)' \
  'eps_grid = (0.5, 1.5)' 'steps_grid = (16, 32)' 'delta = (0.1,)' > cli-run-gmm-d1.cfg
printf '%s\n' 'target = gmm' \
  'means = [(1.0, 0.0, 0.0), (0.0, 1.5, 0.0), (0.0, 0.0, -1.0), (-1.0, -1.0, 1.0), (0.5, 0.5, 0.5)]' \
  'sigma = 0.3' 'schedule = linear' 'n = 128' 'steps = 16' 'zeta_grid = (0.0, 0.2)' \
  'eps_grid = (0.5, 1.5)' 'steps_grid = (16, 32)' 'delta = (0.1, 0.0, -0.05)' > cli-run-gmm-d3.cfg
gif-lab flow --config cli-run-gmm-d1.cfg --x 0.3 --jacobian --logdensity --no-timestamp \
  --out "$out/gmm-d1/flow"
gif-lab flow --config cli-run-gmm-d3.cfg --x 0.3,-0.2,0.1 --jacobian --logdensity --no-timestamp \
  --out "$out/gmm-d3/flow"
gif-lab sample --config cli-run-gmm-d3.cfg --n 10000 --no-timestamp --out "$out/gmm-d3/sample"
for d in d1 d3; do
  for cmd in stability-source stability-velocity autoencode ag-check; do
    gif-lab "$cmd" --config "cli-run-gmm-$d.cfg" --no-timestamp --svg --out "$out/gmm-$d/$cmd"
  done
done

# A Gaussian block of the two sweeps, into "$out/gaussian", each rerun under
# "taskset -c 0": the source sweep also writes the bound column (the
# closed-form constants plus the Monte Carlo floor), and in the velocity
# sweep, where grad v is theta times the identity, every particle's gap
# comes within a few percent of bound_rhs.
printf '%s\n' 'target = gaussian' 'mean = (0.8, -0.6)' 'var = 0.49' 'schedule = linear' \
  'n = 128' 'steps = 16' 'zeta_grid = (0.02, 0.1, 0.2)' 'eps_grid = (0.5, 2.0)' \
  > cli-run-gaussian.cfg
for cmd in stability-source stability-velocity; do
  gif-lab "$cmd" --config cli-run-gaussian.cfg --no-timestamp --svg --out "$out/gaussian/$cmd"
  taskset -c 0 gif-lab "$cmd" --config cli-run-gaussian.cfg --no-timestamp --svg \
    --out "$out-cpu0/gaussian/$cmd"
  diff -r "$out/gaussian/$cmd" "$out-cpu0/gaussian/$cmd"
done

# An early-stop block: flow with its default span, which is the direction's
# horizon, [0, 1 - early_stop] forward and [early_stop, 1] reverse, into
# "$out/early-stop".
printf '%s\n' 'target = moderate-gmm4' 'schedule = linear' 'steps = 16' 'early_stop = 0.1' \
  > cli-run-early-stop.cfg
gif-lab flow --config cli-run-early-stop.cfg --x 0.3,-0.2 --no-timestamp \
  --out "$out/early-stop/flow-forward"
gif-lab flow --config cli-run-early-stop.cfg --x 0.3,-0.2 --direction reverse --jacobian \
  --logdensity --no-timestamp --out "$out/early-stop/flow-reverse"

# A Gaussian flow block, the one-component case of the mixture formula:
# the flow-map Jacobian and the log-density forward and in reverse, and the
# log-density alone, which writes no Jacobian columns, into
# "$out/gaussian-flow".
printf '%s\n' 'target = gaussian' 'mean = (0.8, -0.6)' 'var = 0.49' 'schedule = trig' \
  'steps = 16' > cli-run-gaussian-flow.cfg
gif-lab flow --config cli-run-gaussian-flow.cfg --x 0.3,-0.2 --jacobian --logdensity \
  --no-timestamp --out "$out/gaussian-flow/flow-forward"
gif-lab flow --config cli-run-gaussian-flow.cfg --x 0.3,-0.2 --direction reverse --jacobian \
  --logdensity --no-timestamp --out "$out/gaussian-flow/flow-reverse"
gif-lab flow --config cli-run-gaussian-flow.cfg --x 0.3,-0.2 --logdensity --no-timestamp \
  --out "$out/gaussian-flow/flow-logdensity"

cd "$out"
find . -type f | LC_ALL=C sort | xargs sha256sum >&3
