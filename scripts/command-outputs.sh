#!/usr/bin/env bash
# Write the command outputs of a lossgate source tree: each command's --help,
# what each accepted command prints, reports, traces, CSVs, and the exit code
# and message of each refused input.
#
#   scripts/command-outputs.sh TREE OUT INPUTS
#
# TREE is a source tree (its package is imported from TREE/src), OUT the
# directory the outputs go to, and INPUTS a directory for the malformed
# datasets and config files. Run it on two trees with the same INPUTS, so the
# messages of both name the same paths, and compare them:
#
#   git archive BASE | tar -x -C base
#   scripts/command-outputs.sh base out-base inputs
#   scripts/command-outputs.sh . out-head inputs
#   diff -r out-base out-head
#
# Nothing is written into TREE: Python writes no bytecode, and every file
# goes under OUT or INPUTS.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 TREE OUT INPUTS" >&2
  exit 2
fi
tree="$(cd "$1" && pwd)"
mkdir -p "$2" "$3"
out="$(cd "$2" && pwd)"
inputs="$(cd "$3" && pwd)"
export PYTHONDONTWRITEBYTECODE=1

lg() { PYTHONPATH="$tree/src" python -m lossgate "$@"; }
# keep_stdout NAME: the piped stdout of a command as OUT/NAME.stdout, each path under OUT written
# OUT/..., so that the outputs of two trees, written to two OUT directories, compare
keep_stdout() { sed "s|$out/|OUT/|g" > "$out/$1.stdout"; }
# the package is TREE's own, not an installed one
PYTHONPATH="$tree/src" python -c 'import lossgate, sys; sys.exit(not lossgate.__file__.startswith(sys.argv[1]))' "$tree/"

# malformed datasets: the loop below runs each file in this directory
bad="$inputs/malformed"
mkdir -p "$bad"
ok='{"text": "good movie", "label": 1}'
printf '%s\n%s\n{"text": "bad plot", "label": 0}\n{oops\n%s\n' "$ok" "$ok" "$ok" > "$bad/bad-json.jsonl"
printf '%s\n%s\n{"text": "so so", "label": 2}\n' "$ok" "$ok" > "$bad/label-range.jsonl"
printf '%s\n{"text": "a b", "text2": 7, "label": 0}\n' "$ok" > "$bad/text2.jsonl"
printf 'good movie\t1\ngood movie\t1\nno tab here\n' > "$bad/no-tab.tsv"
printf '%s\n{"text": "a b", "label": "1"}\n' "$ok" > "$bad/label-string.jsonl"
printf '%s\n{"text": "a b", "label": true}\n' "$ok" > "$bad/label-bool.jsonl"
printf 'good movie\t1\na b\tx\n' > "$bad/label-text.tsv"
printf '\n   \n\n' > "$bad/blank.jsonl"
# config files: a value of the wrong type, a key that is no longer a field,
# a key that sweep sets for each run, a line that is not a pair and an
# infinite fixed threshold
printf 'learning_rate = true\n' > "$inputs/learning-rate-true.cfg"
printf 'epochs = abc\n' > "$inputs/epochs-abc.cfg"
printf 'force_l_low = -inf\n' > "$inputs/force-l-low.cfg"
printf 'power_cpu_watts = 100\n' > "$inputs/power-cpu-watts.cfg"
printf 'epochs = 3\n' > "$inputs/sweep-epochs.cfg"
printf '# a comment\n\n  # an indented comment\nnot a pair\n' > "$inputs/not-a-pair.cfg"
printf 'fixed_threshold = -inf\n' > "$inputs/fixed-threshold-inf.cfg"
# an accepted config file: comments, a blank line, a bare string, JSON numbers,
# and .5, which json.loads refuses, so only the flag's parser reads it
printf '# fixed-threshold, read from a file\n\nmode = fixed-threshold  # a bare string\nepochs = 2\nlearning_rate = 0.25\nfixed_threshold = .5\n' \
  > "$inputs/fixed-threshold.cfg"

# each command's flags, with their types, choices and metavars; the top-level --help
# prints the cli module docstring, which is documentation and not an output
for cmd in run sweep compare gen-toy; do
  COLUMNS=100 lg "$cmd" --help > "$out/help-$cmd.txt"
done

lg gen-toy --out "$out/toy.jsonl" --num-examples 3000 --eval-out "$out/eval.jsonl" --eval-size 500 --seed 1 | keep_stdout gen-toy
# the acceptance configuration, under which three-stage reaches stage 2
data=(--data "$out/toy.jsonl" --eval-data "$out/eval.jsonl" --batch-size 8 --threshold-window 64 --skip-gamma 0.87)
for mode in three-stage train-all; do
  lg run "${data[@]}" --n0 0.2 --alt 0.5 --mode "$mode" --epochs 2 \
    --report "$out/$mode.json" --trace "$out/$mode.csv" | keep_stdout "$mode"
done
# a learning rate that saturates the model: probabilities of exactly 0.0 or 1.0, losses above 100
for mode in three-stage train-all; do
  lg run "${data[@]}" --n0 0.2 --alt 0.5 --mode "$mode" --epochs 2 --learning-rate 50 \
    --report "$out/$mode-lr50.json" --trace "$out/$mode-lr50.csv" | keep_stdout "$mode-lr50"
done
# the other gated modes, which compare reaches only through its seed-averaged CSV
lg run "${data[@]}" --mode fixed-threshold --fixed-threshold 0.5 --epochs 2 \
  --report "$out/fixed-threshold.json" --trace "$out/fixed-threshold.csv" | keep_stdout fixed-threshold
lg run "${data[@]}" --mode random-skip --random-skip-ratio 0.4 --epochs 2 \
  --report "$out/random-skip.json" --trace "$out/random-skip.csv" | keep_stdout random-skip
lg run "${data[@]}" --mode auto-threshold-only --n0 0.2 --epochs 2 \
  --report "$out/auto-threshold-only.json" --trace "$out/auto-threshold-only.csv" | keep_stdout auto-threshold-only
# the predictor's parameters away from their defaults; stage 2 starts at batch 104
lg run "${data[@]}" --n0 0.2 --alt 0.5 --epochs 2 --smoothing-alpha 0.5 \
  --report "$out/alpha.json" --trace "$out/alpha.csv" | keep_stdout alpha
# pass times away from their defaults, so T, T_norm, p_t and co2e are priced by another time model
lg run "${data[@]}" --n0 0.2 --alt 0.5 --epochs 2 --t-forward 1 --t-backward 3.4 \
  --report "$out/time-model.json" --trace "$out/time-model.csv" | keep_stdout time-model
# a given a_full, which the report keeps and scores agot against
lg run "${data[@]}" --n0 0.2 --alt 0.5 --epochs 2 --a-full 0.8 --report "$out/a-full.json" | keep_stdout a-full
# a run read from a config file, with a flag over one of its values
lg run "${data[@]}" --config "$inputs/fixed-threshold.cfg" --epochs 1 --report "$out/config-file.json" | keep_stdout config-file
# the per-epoch accuracy curve, with a trace whose stage and epoch columns cross two epoch boundaries
lg run "${data[@]}" --n0 0.2 --alt 0.5 --epochs 3 --eval-every-epoch --report "$out/epoch-curve.json" \
  --trace "$out/epoch-curve.csv" | keep_stdout epoch-curve
# a predictor window that never fills, so the run never leaves stage 1
lg run "${data[@]}" --n0 0.2 --alt 0.5 --mode three-stage --predictor-window 4611686018427387904 --epochs 2 \
  --report "$out/no-predictor.json" | keep_stdout no-predictor
lg sweep "${data[@]}" --n0-grid 0.1,0.2 --alt-grid 0.5 --window-grid 8 --out "$out/sweep.csv" | keep_stdout sweep
# several seeds and epoch counts: runs go seed-major and rows epochs-major
lg sweep "${data[@]}" --seeds 0,1 --epochs-grid 1,2 --n0-grid 0.2 --alt-grid 0.5 --window-grid 8 \
  --fixed-thresholds 0.3 --out "$out/sweep-seeds.csv" | keep_stdout sweep-seeds
lg compare "${data[@]}" --n0 0.2 --alt 0.5 --seeds 0,1 --out "$out/compare.csv" | keep_stdout compare
# at batch 32 the fixed-threshold-0.7 control skips every batch
lg compare "${data[@]:0:4}" --batch-size 32 --threshold-window 64 --skip-gamma 0.87 --seeds 0,1,2 \
  --fixed-thresholds 0.3,0.7 --out "$out/compare-batch32.csv" | keep_stdout compare-batch32
# the training set as TSV under a header line
python -c 'import json, sys; print("text\tlabel"); [print(r["text"], r["label"], sep="\t") for r in map(json.loads, open(sys.argv[1]))]' \
  "$out/toy.jsonl" > "$out/toy.tsv"
lg run --data "$out/toy.tsv" --header "${data[@]:2}" --n0 0.2 --alt 0.5 --epochs 2 --report "$out/header.json" | keep_stdout header
# a corpus in which no text repeats, over a wide vocabulary, so every token list is featurized
lg gen-toy --out "$out/wide.jsonl" --num-examples 3000 --dup-factor 1 --class-vocab 20000 \
  --shared-vocab 80000 --seed 2 | keep_stdout gen-toy-wide
lg run --data "$out/wide.jsonl" --epochs 2 --report "$out/wide.json" --trace "$out/wide.csv" | keep_stdout wide
# texts that are not ASCII letters, digits and spaces alone, so tokenize reads them with its pattern:
# punctuation, underscores, tabs and newlines, uppercase, NBSP, and non-ASCII letters and digits
printf '%s\n' \
  '{"text": "Don'"'"'t STOP_believing!!! 3-2-1, go.", "label": 1}' \
  '{"text": "snake_case\tand\ttabs\nand newlines", "label": 0}' \
  '{"text": "Café naïve ÉTÉ Straße", "label": 1}' \
  '{"text": "Arabic-Indic ٣٤ and 12\u00a0NBSP", "label": 0}' \
  '{"text": "İstanbul and the \u212aelvin sign", "label": 1}' \
  '{"text": "e-mail: a.b@c.d (URL) http://x.y/z?q=1", "label": 0}' \
  '{"text": "Good movie, GOOD plot", "label": 1}' \
  '{"text": "bad_plot__bad—acting…", "label": 0}' > "$out/regex-path.jsonl"
lg run --data "$out/regex-path.jsonl" --mode train-all --batch-size 2 --epochs 2 \
  --report "$out/regex-path.json" --trace "$out/regex-path.csv" | keep_stdout regex-path
# a bad record: the exit code and the message
for file in "$bad"/*; do
  lg run --data "$file" --mode train-all > /dev/null 2> "$out/${file##*/}.err" && code=0 || code=$?
  echo "exit $code" >> "$out/${file##*/}.err"
done
# a bad config value: the exit code and the message
config_error() {  # config_error NAME FLAG...
  local err="$out/config-$1.err"
  shift
  lg run --data "$out/toy.jsonl" --mode train-all "$@" > /dev/null 2> "$err" && code=0 || code=$?
  echo "exit $code" >> "$err"
}
config_error epochs --epochs 0
config_error batch-size --batch-size 0
config_error alt --alt -1
config_error n0 --n0 0
config_error learning-rate --learning-rate inf
config_error threshold-window --threshold-window 0
config_error file --config "$inputs/learning-rate-true.cfg"
config_error epochs-abc --config "$inputs/epochs-abc.cfg"
config_error stale-key --config "$inputs/force-l-low.cfg"
config_error stale-power-key --config "$inputs/power-cpu-watts.cfg"
config_error not-a-pair --config "$inputs/not-a-pair.cfg"
config_error missing-file --config "$inputs/absent.cfg"
config_error batch-size-huge --batch-size 9223372036854775808
config_error fixed-threshold-train-all --fixed-threshold 0.05
# an infinite gate, which no report could write as valid JSON
config_error fixed-threshold-inf --mode fixed-threshold --config "$inputs/fixed-threshold-inf.cfg"
# a refused sweep or compare: the exit code and the message
refused() {  # refused NAME COMMAND FLAG...
  local err="$out/$1.err"
  shift
  lg "$@" > /dev/null 2> "$err" && code=0 || code=$?
  echo "exit $code" >> "$err"
}
# a flag or a --config key of a field sweep or compare sets for each run
refused sweep-config sweep "${data[@]}" --n0-grid 0.2 --alt-grid 0.5 --window-grid 8 --fixed-thresholds '' \
  --config "$inputs/sweep-epochs.cfg" --out "$out/sweep-config.csv"
refused sweep-mode sweep "${data[@]}" --mode three-stage --out "$out/sweep-mode.csv"
refused compare-seed compare "${data[@]}" --seed 3 --out "$out/compare-seed.csv"
# a time model that prices the billion-epoch runs at an infinite T
refused sweep-infinite-t sweep "${data[@]}" --n0-grid 0.2 --alt-grid 0.5 --window-grid 8 --fixed-thresholds '' \
  --t-forward 1e300 --epochs-grid 1,1000000000 --out "$out/sweep-infinite-t.csv"
# the measured wall time of gate and predictor differs from run to run
sed -i '/"overhead_wall_seconds"/d' "$out"/*.json
