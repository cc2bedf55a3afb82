# The summary of tools/bench-pairs.sh: reads one line per pair,
#   seed first base_throughput base_unscaled base_setup_s base_peak_rss_mb base_digest
#              change_throughput change_unscaled change_setup_s change_peak_rss_mb change_digest
# and prints, for each metric, both sides' medians with their quartiles,
# the ratio of the medians, how many pairs the change won (higher
# throughput, lower setup_s and peak RSS; ties win for neither side) and
# a verdict:
#   gain        the change won at least 9 in 10 of the pairs, and its
#               median beats the base's by more than the base's
#               interquartile range;
#   unresolved  not a gain, and the base's interquartile range is wider
#               than the metric's bound times the base's median: the pairs
#               spread too widely to show a regression either way;
#   worse       the change's median is worse than the base's by more than
#               the metric's bound;
#   same        otherwise.
# The bounds are BENCHMARK.json's, passed as -v throughput_bound=...
# -v setup_s_bound=... -v peak_rss_mb_bound=...; the unscaled throughput
# takes the throughput's. Exits non-zero unless every pair's digests are
# equal.
#
# The quartiles are Python's statistics.quantiles(n=4) with its default
# exclusive method, as the benchmark's own summary computes them;
# tests/bench_pairs_summary.rs checks this file against that summary.

# The k-th of the three cut points of v[1..n], sorted ascending, n >= 2.
function cut(v, n, k,   m, j, d) {
    m = n + 1
    j = int(k * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    d = k * m - j * 4
    return (v[j] * (4 - d) + v[j + 1] * d) / 4
}

# Sorts v[1..n] and sets q1, med and q3.
function summary(v, n,   i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    if (n == 1) { q1 = med = q3 = v[1]; return }
    q1 = cut(v, n, 1); med = cut(v, n, 2); q3 = cut(v, n, 3)
}

# The verdict on metric k from both medians, the base's quartiles and the
# pairs the change won.
function verdict(k, bm, b1, b3, cm, wins,   higher, better, bound) {
    higher = k < 2
    better = higher ? cm - bm : bm - cm
    if (wins * 10 >= n * 9 && better > b3 - b1) return "gain"
    bound = bounds[k + 1]
    if (b3 - b1 > bound * bm) return "unresolved"
    if (higher ? cm < bm * (1 - bound) : cm > bm * (1 + bound)) return "worse"
    return "same"
}

BEGIN {
    if (throughput_bound == "" || setup_s_bound == "" || peak_rss_mb_bound == "") {
        print "pairs-summary.awk: pass -v throughput_bound=, setup_s_bound= and peak_rss_mb_bound=" > "/dev/stderr"
        usage = 1
        exit 2
    }
    split(throughput_bound " " throughput_bound " " setup_s_bound " " peak_rss_mb_bound, bounds, " ")
}

{
    n++
    for (k = 0; k < 4; k++) {
        b = $(3 + k) + 0; c = $(8 + k) + 0
        base[k, n] = b; change[k, n] = c
        higher = k < 2
        if ((higher && c > b) || (!higher && c < b)) won[k]++
    }
    if ($7 == $12) same++
}

END {
    if (usage) exit 2
    split("throughput unscaled setup_s peak_rss_mb", name, " ")
    split("%.0f %.0f %.4f %.2f", form, " ")
    printf "%-12s %30s %30s %8s %6s %10s\n", "metric", "base median (q1-q3)", "change median (q1-q3)", "ratio", "won", "verdict"
    for (k = 0; k < 4; k++) {
        f = form[k + 1] " (" form[k + 1] "-" form[k + 1] ")"
        for (i = 1; i <= n; i++) { vb[i] = base[k, i]; vc[i] = change[k, i] }
        summary(vb, n); bm = med; b1 = q1; b3 = q3
        summary(vc, n); cm = med; c1 = q1; c3 = q3
        printf "%-12s %30s %30s %8s %6s %10s\n", name[k + 1], sprintf(f, bm, b1, b3), sprintf(f, cm, c1, c3), sprintf("x%.3f", cm / bm), (won[k] + 0) "/" n, verdict(k, bm, b1, b3, cm, won[k] + 0)
    }
    printf "digests equal in %d of %d pairs\n", same, n
    exit same == n ? 0 : 1
}
