//! The summary statistic the paper reports across runs: the geometric mean
//! of loop speedups (Figure 7).

/// Geometric mean of a slice of speedups (the paper's summary statistic in
/// Figure 7).
///
/// Only IEEE-754 `+ − × ÷` and comparisons are used — the product of the
/// sorted values, then its n-th root by bisection between the smallest and
/// largest value — so the result is the same bits on every host and for
/// every order of `values` (libm's `ln`/`exp` are not correctly rounded and
/// may differ by an ulp between platforms). It is the largest `g` in that
/// range whose rounded `g^n` does not exceed the rounded product.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
        return 0.0;
    };
    let product: f64 = sorted.iter().product();
    let power = |g: f64| sorted.iter().fold(1.0, |acc: f64, _| acc * g);
    let (mut lo, mut hi) = (min, max);
    loop {
        let mid = lo + (hi - lo) / 2.0;
        // Also ends the search on a NaN or infinite input.
        if !(lo < mid && mid < hi) {
            return lo;
        }
        if power(mid) <= product {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_geomean() {
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 4.0]), 2.0);
        assert_eq!(geomean(&[2.0, 8.0]), 4.0);
        for x in [1e-3, 0.5, 0.707271, 1.0, 1.217267, 1.607291, 3.0, 1e3] {
            assert_eq!(geomean(&[x; 4]), x, "{x}");
            assert_eq!(geomean(&[x]), x, "{x}");
        }
        // The committed Figure 7 paper-loop speedups (sequential / Spice
        // cycles of ks, otter, 181.mcf, 458.sjeng at 2 and 4 threads): every
        // order of the inputs gives the same bits.
        let orders: Vec<[usize; 4]> = (0..256usize)
            .map(|p| [p & 3, p >> 2 & 3, p >> 4 & 3, p >> 6])
            .filter(|o| o.iter().fold(0, |seen, &k| seen | 1 << k) == 0b1111)
            .collect();
        assert_eq!(orders.len(), 24);
        for cycles in [
            [
                (1_851_711, 1_580_195),
                (1_536_592, 1_265_002),
                (2_773_633, 2_412_214),
                (150_824, 112_432),
            ],
            [
                (1_851_711, 1_204_295),
                (1_536_592, 793_786),
                (2_773_633, 1_820_887),
                (150_824, 102_460),
            ],
        ] {
            let speedups = cycles.map(|(seq, spice)| f64::from(seq) / f64::from(spice));
            let expected = geomean(&speedups).to_bits();
            for order in &orders {
                let permuted = order.map(|k| speedups[k]);
                assert_eq!(geomean(&permuted).to_bits(), expected, "{order:?}");
            }
        }
    }
}
