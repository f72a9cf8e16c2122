#!/usr/bin/env bash
# Smoke test of the installed `discreteconics` command: runs the README's CLI
# examples and two hyperbola-member pipelines, and checks each exit code
# against the one the README states (0 success, 1 a check failed, 2 usage or
# degenerate input).  Run it after `pip install .`, from any directory.
set -u

command -v discreteconics >/dev/null || {
    echo "discreteconics is not on PATH: run \`pip install .\` first" >&2
    exit 2
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2
status=0

expect() {  # expect CODE PIPELINE
    bash -o pipefail -c "$2" >/dev/null 2>"$work/stderr"
    local got=$?
    if [ "$got" -eq "$1" ]; then
        echo "ok   exit $got: $2"
    else
        echo "FAIL exit $got, expected $1: $2"
        cat "$work/stderr"
        status=1
    fi
}

dc=discreteconics
gen="$dc generate --p 0.75 --t 0.5 --theta pi/6 --n 12"

# README examples.
expect 0 "$gen"
expect 0 "$dc pedal --p 0.75 --theta pi/6 --n 12"
expect 0 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | $dc transform --op G --angle 2pi/8"
expect 0 "$gen | $dc grid --k 3"
expect 0 "$gen | $dc verify --check all"
expect 0 "$dc generate --p 0.75 --t 1 --theta 2pi/6 --n 6 | $dc render --out figure.svg"
[ -s figure.svg ] || { echo "FAIL render wrote no figure.svg"; status=1; }

# Vertices on the far branch of a hyperbola member.
expect 0 "$dc generate --p 0.3 --t 20 --theta 2pi/7 --n 7 | $dc verify"
expect 0 "$dc generate --p 0.5 --t 20 --theta 2pi/8 --n 8 | $dc grid --k 2 | $dc verify"

# Actions at k > 1 times theta, whose vertex correspondence is verified:
# H at k = 2, G at k = 3, and H on a hyperbola member.
expect 0 "$gen | $dc transform --op H --angle 2pi/6"
expect 0 "$gen | $dc transform --op G --angle pi/2"
expect 0 "$dc generate --p 0.5 --t 20 --theta 2pi/8 --n 8 | $dc transform --op H --angle 3pi/4 | $dc verify"

# The other exit codes.
expect 1 "$gen | $dc verify --tol 1e-300"
expect 2 "$dc generate --p 1 --t 0.5 --theta pi/6 --n 12"
expect 2 "$dc generate --p 0.5 --t 1 --theta pi/0 --n 8"
expect 2 "echo '{\"conics\": 5}' | $dc render --out scene.svg"
# Polygon JSON whose closed flag contradicts n*theta, and a NaN pencil member.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 7 | sed 's/\"closed\": false/\"closed\": true/' | $dc verify"
expect 2 "echo '{\"conics\": [{\"p\": NaN, \"t\": 1}]}' | $dc render --out nan.svg"
[ -e nan.svg ] && { echo "FAIL render wrote nan.svg"; status=1; }
# A polygon with no vertices.
expect 2 "echo '{\"p\": 0.5, \"t\": 1, \"theta\": 1, \"phi\": 0, \"n\": 0, \"closed\": true, \"vertices\": []}' | $dc render --out e.svg"
[ -e e.svg ] && { echo "FAIL render wrote e.svg"; status=1; }
# Polygon JSON with theta outside (0, pi), which generate would reject.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"theta\": [^,]*/\"theta\": 0.0/' | $dc grid --k 2"
# Polygon JSON whose p names no pencil member, through a check that never reads p.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"p\": [^,]*/\"p\": 1.0/' | $dc verify --check projective_regular"
# A scene line with a NaN coefficient.
expect 2 "echo '{\"lines\": [[NaN, 1, 0]]}' | $dc render --out line.svg"
[ -e line.svg ] && { echo "FAIL render wrote line.svg"; status=1; }
# A vertex whose pencil parameter t overflows.
expect 2 "echo '{\"p\": 0.5, \"t\": 1.0, \"theta\": 0.7853981633974483, \"phi\": 0.0, \"n\": 4, \"closed\": false, \"vertices\": [[1e200, 1e200], [0.3, 0.2], [0.1, 0.5], [0.2, 0.1]]}' | $dc verify"
# A negative pi fraction after --phi, detached from the option.
expect 0 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --phi -pi/3 --n 8"
# Polygon JSON whose closed flag is not a JSON boolean.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"closed\": true/\"closed\": \"no\"/' | $dc verify"
# A point label with XML metacharacters renders to a well-formed file.
expect 0 "echo '{\"points\": [{\"label\": \"a\\\"b&c\", \"xy\": [0, 0]}]}' | $dc render --out label.svg"
expect 0 "python3 -c 'import xml.dom.minidom, sys; xml.dom.minidom.parse(sys.argv[1])' label.svg"
# A p that is a string holding a number, not a JSON number.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"p\": [^,]*/\"p\": \"0.5\"/' | $dc verify"
# A p that is a JSON integer beyond float range: a typed error, no traceback.
big=$(printf '9%.0s' $(seq 401))
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"p\": [^,]*/\"p\": $big/' | $dc verify"
grep -q Traceback "$work/stderr" && { echo "FAIL verify printed a traceback"; status=1; }
# A point label with a control character, which XML 1.0 cannot hold.
expect 2 "echo '{\"points\": [{\"label\": \"a\\u0001b\", \"xy\": [0, 0]}]}' | $dc render --out ctl.svg"
[ -e ctl.svg ] && { echo "FAIL render wrote ctl.svg"; status=1; }
# An abbreviated option name.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --ph -pi/3 --n 8"
# Container fields that are no arrays, each named in the error.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"vertices\": .*\]\]/\"vertices\": null/' | $dc verify"
grep -q '^error: vertices must be an array' "$work/stderr" || { echo "FAIL verify did not name vertices"; status=1; }
expect 2 "echo '{\"points\": 5}' | $dc render --out points.svg"
[ -e points.svg ] && { echo "FAIL render wrote points.svg"; status=1; }
# A line coefficient beyond float range: the error shows inf, not a NaN.
expect 2 "echo '{\"lines\": [[1, $big, 0]]}' | $dc render --out big.svg"
grep -q inf "$work/stderr" && ! grep -q -e nan -e Traceback "$work/stderr" \
    || { echo "FAIL render reported a NaN or a traceback"; status=1; }
[ -e big.svg ] && { echo "FAIL render wrote big.svg"; status=1; }
# A closed polygon whose inscribed member is a parabola: verify skips the
# checks that need its second focus, which is at infinity.
expect 0 "$dc generate --p 0.75 --t 2.716202746667414 --theta 2pi/5 --n 5 | $dc verify"
grep -q Traceback "$work/stderr" && { echo "FAIL verify printed a traceback"; status=1; }
# Five tiny steps make no turn: the chain is open, and a transform by a
# multiple of a subnormal theta asserts no vertex correspondence.
expect 0 "$dc generate --p 0.5 --t 1 --theta 1e-12 --n 5 | grep -q '\"closed\": false'"
expect 0 "$dc generate --p 0.5 --t 1 --theta 1e-320 --n 5 | $dc transform --op G --angle 2pi/7"
# An obtuse star, where k*theta passes pi for every grid k >= 2: every check passes.
expect 0 "$dc generate --p 0.5 --t 1 --theta 5pi/6 --n 12 | $dc verify"
# Tiny p: opposite sides meet on the directrix about 1/p away, and pascal_line passes.
expect 0 "$dc generate --p 0.001 --t 0.0128 --theta 5pi/6 --n 12 --phi -2.322 | $dc verify"
# A large even polygon: the side lines, the opposite-side intersections and
# the grid layer each go through one batch call.
large="$dc generate --p 0.75 --t 0.5 --theta 2pi/240 --n 240"
expect 0 "$large | $dc verify --check pascal_line"
expect 0 "$large | $dc grid --k 2 | $dc verify"
# A hyperbola member at n = 960: its vertices and its grid layer each go
# through one batch Point constructor.
largest="$dc generate --p 0.5 --t 6 --theta 2pi/960 --n 960"
expect 0 "$largest | $dc verify"
expect 0 "$largest | $dc grid --k 2 | $dc verify"
# A transform angle outside [0, pi): the error names the element and its angle.
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | $dc transform --op G --angle 7pi/6"
grep -q 'G acts at the angle' "$work/stderr" || { echo "FAIL transform did not name G's angle"; status=1; }
# A scene conic entry that is no object, and a polygon without p: each is named.
expect 2 "echo '{\"conics\": [5]}' | $dc render --out conic.svg"
grep -q 'conic must be an object' "$work/stderr" || { echo "FAIL render did not name the conic"; status=1; }
[ -e conic.svg ] && { echo "FAIL render wrote conic.svg"; status=1; }
expect 2 "$dc generate --p 0.5 --t 1 --theta 2pi/8 --n 8 | sed 's/\"p\": [^,]*, //' | $dc verify"
grep -q 'missing key' "$work/stderr" || { echo "FAIL verify did not name the missing key"; status=1; }
# verify's help lists its checks.
expect 0 "$dc verify --help | grep -q pascal_line"

exit $status
