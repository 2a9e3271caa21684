#!/usr/bin/env bash
# Smoke test of the installed `pglb` command: each line runs one command and
# checks its output or exit code. It writes its files into the current
# directory, so run it from an empty one:
#
#     cd "$(mktemp -d)" && bash path/to/pglb/.github/smoke.sh
#
# Any failing command stops the script with a nonzero exit status.
set -eo pipefail

pglb gen 3sat -k 1 > sat1.pga
pglb run sat1.pga --in ffffffff --aux 1
pglb fmt sat1.pga | cmp - sat1.pga
pglb gen 3sat -k 2 > sat2.pga
pglb fmt sat2.pga | cmp - sat2.pga
printf '+in:1.get ;  !t;\t!f\n' > spaced.pga
test "$(pglb run spaced.pga --in t)" = t
printf '\xef\xbb\xbf+in:1.get; !t; !f\n' > bom.pga
test "$(pglb run bom.pga --in t)" = t
printf 'k 2\nff f\nft t\ntf t\ntt f\n' > xor.tt
pglb compile tt xor.tt > xor.pga
pglb fmt xor.pga | cmp - xor.pga
pglb verify xor.pga --tt xor.tt
printf 'k 2\nff t\nft t\ntf t\ntt f\n' > flipped.tt
status=0; pglb verify xor.pga --tt flipped.tt || status=$?
test "$status" -eq 1
printf 'k 2\nff f\nft u\ntf f\ntt t\n' > three-flips.tt
status=0; pglb verify xor.pga --tt three-flips.tt > three-flips.out || status=$?
test "$status" -eq 1
printf '%s\n' '3 mismatching input(s) out of 4' 'input tf: got t, expected f' 'input ft: got t, expected d' \
    'input tt: got f, expected t' | cmp - three-flips.out
status=0; pglb lengths --max-k 13 > lengths.out || status=$?
test "$status" -eq 2
test ! -s lengths.out
printf 'k 2\nff f\ntf t\nft t\ntt f\n' > xor-index.tt
pglb compile tt xor-index.tt > xor-index.pga
pglb verify xor-index.pga --tt xor-index.tt
pglb verify xor.pga --tt xor-index.tt
printf 'inputs 2\ng1 = NOT x1\ng2 = AND g1 x2\n' > c.net
pglb compile circuit c.net > c.pga
pglb fmt c.pga | cmp - c.pga
printf 'k 2\nff f\nft t\ntf f\ntt f\n' > c.tt
pglb verify c.pga --tt c.tt --aux 2
printf 'k 2\nff f\nft f\ntf f\ntt f\n' > c-flipped.tt
status=0; pglb verify c.pga --tt c-flipped.tt --aux 2 || status=$?
test "$status" -eq 1
printf 'k 2\nff f\nft t\ntx t\ntt f\n' > bad-row.tt
status=0; pglb verify xor.pga --tt bad-row.tt || status=$?
test "$status" -eq 2
status=0; pglb gen 3sat -k 64 > sat64.pga || status=$?
test "$status" -eq 3
test ! -s sat64.pga
printf 'a; \\#1\n' > loop.pga
status=0; pglb project loop.pga -n 100000000 > loop.out || status=$?
test "$status" -eq 3
test ! -s loop.out
printf 'a; b; \\#2\n' > loop2.pga
status=0; pglb project loop2.pga -n 1000000000000000 > loop2.out || status=$?
test "$status" -eq 3
test ! -s loop2.out
printf 'x; y; a; b; c; d; \\#4\n' > prefix-loop.pga
status=0; pglb project prefix-loop.pga -n 1000000000000000 > prefix-loop.out || status=$?
test "$status" -eq 3
test ! -s prefix-loop.out
test "$(pglb project prefix-loop.pga -n 9)" = 'x ∘ y ∘ a ∘ b ∘ c ∘ d ∘ a ∘ b ∘ c ∘ D'
printf 'a; +b; #2; #3; c; \\#4; +d; !t; !f\n' > demo.pga
printf '%s\n' 'E0 = a ∘ E1' 'E1 = c ∘ E1 ⊴ b ⊵ (S+ ⊴ d ⊵ S-)' > demo.want
pglb extract demo.pga | cmp - demo.want
test "$(pglb project demo.pga -n 3)" = 'a ∘ (c ∘ D ⊴ b ⊵ d ∘ D)'
printf '+in:1.get; // note\f!f\n!t; !f\n' > form-feed.pga
test "$(pglb fmt form-feed.pga)" = '+in:1.get; !t; !f'
printf 'p cnf 1 1\n1 1 1\n' > unterminated.cnf
status=0; pglb encode cnf unterminated.cnf > unterminated.out 2> unterminated.err || status=$?
test "$status" -eq 2
test ! -s unterminated.out
grep -q 'unterminated clause' unterminated.err
printf 'p cnf 1 1\n1 x 1 0\np cnf 1 1\n' > late-header.cnf
status=0; pglb encode cnf late-header.cnf > late-header.out 2> late-header.err || status=$?
test "$status" -eq 2
test ! -s late-header.out
grep -q "2: bad literal 'x'" late-header.err
printf '+in:1.get; +aux:1.get; !t; !f\n' > aux.pga
test "$(pglb run aux.pga --in t --aux 100000000000000000000)" = t
printf '+aux:10000000000.set:f; +aux:10000000000.get; !t; !f\n' > aux-index.pga
test "$(pglb run aux-index.pga --aux 10000000000)" = f
python -c "print('a; #' + '9' * 5000)" > long-jump.pga
status=0; pglb fmt long-jump.pga > long-jump.out 2> long-jump.err || status=$?
test "$status" -eq 2
test ! -s long-jump.out
test "$(head -c 12 long-jump.err)" = "parse error:"
python -c "print('a; #' + '9' * 1000)" > jump-1000.pga
status=0; PYTHONINTMAXSTRDIGITS=640 pglb fmt jump-1000.pga > jump-1000.out 2> jump-1000.err || status=$?
test "$status" -eq 2
test "$(head -c 12 jump-1000.err)" = "parse error:"
python -c "print('inputs ' + '9' * 5000); print('g1 = NOT x1')" > long.net
status=0; pglb compile circuit long.net > long-net.out 2> long-net.err || status=$?
test "$status" -eq 2
test ! -s long-net.out
test "$(head -c 12 long-net.err)" = "parse error:"
printf 'p cnf 1_0 1\n1 1 1 0\n' > underscore.cnf
status=0; pglb encode cnf underscore.cnf > underscore.out || status=$?
test "$status" -eq 2
test ! -s underscore.out
printf 'kx 1\nf t\nt f\n' > kx.tt
status=0; pglb compile tt kx.tt > kx.out || status=$?
test "$status" -eq 2
test ! -s kx.out
printf 'inputsfoo 1\ng1 = NOT x1\n' > inputsfoo.net
status=0; pglb compile circuit inputsfoo.net > inputsfoo.out || status=$?
test "$status" -eq 2
test ! -s inputsfoo.out
printf 'pfoo cnf 1 1\n1 1 1 0\n' > pfoo.cnf
status=0; pglb encode cnf pfoo.cnf > pfoo.out || status=$?
test "$status" -eq 2
test ! -s pfoo.out
printf 'k 1\n\n\nf t\nx f\n' > blank-lines.tt
status=0; pglb verify xor.pga --tt blank-lines.tt 2> blank-lines.err || status=$?
test "$status" -eq 2
test "$(head -c 16 blank-lines.err)" = "parse error: 5: "
printf 'inputs 1\n\ng1 = NOT x1\n\ng3 = NOT g1\n' > blank-lines.net
status=0; pglb compile circuit blank-lines.net 2> blank-lines-net.err || status=$?
test "$status" -eq 2
test "$(head -c 16 blank-lines-net.err)" = "parse error: 5: "
printf 'inputs 1\ng1 = NOT x1\ng2 = AND g1 g3\n' > forward.net
status=0; pglb compile circuit forward.net > forward.out 2> forward.err || status=$?
test "$status" -eq 2
test ! -s forward.out
test "$(head -c 16 forward.err)" = "parse error: 3: "
printf '+ in:1.get // c\n!t; !f\n' > spaced-trace.pga
pglb run spaced-trace.pga --trace --in t > spaced-trace.out
test "$(head -n 1 spaced-trace.out)" = "[1] +in:1.get: in:1.get -> t"
printf '+ in:1.get; #0;\\#0 ;-\taux:1.get; !t\n' > canonical.pga
test "$(pglb fmt canonical.pga)" = '+in:1.get; #0; \#0; -aux:1.get; !t'
printf '+  in:1.get ; - aux:1.get; !t; !f\n' > spaced-signs.pga
pglb run spaced-signs.pga --in t --aux 1 --trace > spaced-signs.out
printf '%s\n' '[1] +in:1.get: in:1.get -> t' '[2] -aux:1.get: aux:1.get -> t' '[4] !f: terminate f' f | cmp - spaced-signs.out
printf '!t\n!t; !x\n' > bad-second-line.pga
status=0; pglb run bad-second-line.pga --in t > bad-run.out 2> bad-run.err || status=$?
test "$status" -eq 2
test ! -s bad-run.out
test "$(head -c 17 bad-run.err)" = "parse error: 2:5:"
status=0; pglb verify bad-second-line.pga --tt xor.tt > bad-verify.out 2> bad-verify.err || status=$?
test "$status" -eq 2
test ! -s bad-verify.out
test "$(head -c 17 bad-verify.err)" = "parse error: 2:5:"
pglb extract --graph demo.pga > demo.dot
printf 'a; #01\n' > refused.pga
status=0; pglb extract refused.pga > refused-extract.out 2> refused-extract.err || status=$?
test "$status" -eq 2
test ! -s refused-extract.out
test "$(head -c 12 refused-extract.err)" = "parse error:"
status=0; pglb project refused.pga -n 2 > refused-project.out 2> refused-project.err || status=$?
test "$status" -eq 2
test ! -s refused-project.out
test "$(head -c 12 refused-project.err)" = "parse error:"
pglb fmt sat1.pga > sat1-fmt.pga
pglb extract sat1.pga > sat1.eq
pglb extract sat1-fmt.pga | cmp - sat1.eq
printf 'in:1.foo; !t\n' > unknown-method.pga
pglb run unknown-method.pga --trace --in t > unknown-method.out
printf '%s\n' '[1] in:1.foo: in:1.foo -> d' d | cmp - unknown-method.out
printf '+aux:2.get; !t; !f\n' > aux-past-count.pga
pglb run aux-past-count.pga --trace --aux 1 > aux-past-count.out
printf '%s\n' '[1] no-service (aux:2 past --aux 1)' d | cmp - <(tail -n 2 aux-past-count.out)
printf '+aux:1.get; aux:1.set:f; aux:2.set:t; \\#2\n' > merge-loop.pga
test "$(pglb run merge-loop.pga --aux 2)" = d
pglb run merge-loop.pga --aux 2 --trace > merge-loop.out
printf '%s\n' '[3] divergent (configuration cycle)' d | cmp - <(tail -n 2 merge-loop.out)
printf '+in:1.get; !t; in:1.set:t; \\#3\n' > write-input.pga
test "$(pglb run write-input.pga --in f)" = t
pglb run write-input.pga --in f --trace > write-input.out
printf '%s\n' '[2] !t: terminate t' t | cmp - <(tail -n 2 write-input.out)
printf 'aux:7.set:f; +in:2.get; !t; !f\n' > both-banks.pga
test "$(pglb run both-banks.pga --in tt --aux 7)" = t
printf '+in:1.get; #2; !t; \\#2\n' > back-chain.pga
pglb fmt back-chain.pga | cmp - back-chain.pga
pglb run back-chain.pga --in t --trace > back-chain.out
printf '%s\n' 'deadlock (infinite jump chain)' d | cmp - <(tail -n 2 back-chain.out)
test "$(pglb run back-chain.pga --in f)" = t
