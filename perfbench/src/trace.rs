//! Critical-path accounting for the traced run: which part of one
//! chunk's freshness interval each stage covered.
//!
//! The interval runs from the due time of the chunk-completing push to
//! the moment the reader first saw the chunk. Stages claim the parts of
//! it their spans cover, in priority order; a part already claimed is not
//! claimed again, so a parent span processed after its children keeps
//! only its self time, and overlapping spans are never counted twice.
//! Whatever no span claims is the unaccounted remainder.

/// One freshness interval `[start, end)` being claimed by stage spans.
#[derive(Debug, Clone)]
pub struct Path {
    start: u64,
    end: u64,
    /// Claimed parts: disjoint, sorted.
    claimed: Vec<(u64, u64)>,
}

impl Path {
    /// A path over `[start, end)` (empty when `end <= start`).
    pub fn new(start: u64, end: u64) -> Path {
        Path {
            start,
            end: end.max(start),
            claimed: Vec::new(),
        }
    }

    /// Length of the path.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Claims the part of span `[s, e)` that lies on the path and is not
    /// claimed yet; returns its length (the span's self time here).
    pub fn claim(&mut self, s: u64, e: u64) -> u64 {
        let (s, e) = (s.max(self.start), e.min(self.end));
        if e <= s {
            return 0;
        }
        let mut pieces = vec![(s, e)];
        for &(a, b) in &self.claimed {
            let mut next = Vec::with_capacity(pieces.len() + 1);
            for (ps, pe) in pieces {
                if b <= ps || pe <= a {
                    next.push((ps, pe));
                    continue;
                }
                if ps < a {
                    next.push((ps, a));
                }
                if b < pe {
                    next.push((b, pe));
                }
            }
            pieces = next;
        }
        let got = pieces.iter().map(|(a, b)| b - a).sum();
        self.claimed.extend(pieces);
        self.claimed.sort_unstable();
        got
    }

    /// The part of the path no span has claimed.
    pub fn unclaimed(&self) -> u64 {
        self.len() - self.claimed.iter().map(|(a, b)| b - a).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_partition_the_path() {
        // Path 100..200: lag 100..110, push 110..111, a span that starts
        // before the path 50..140 keeps only 111..140, a gap 140..150,
        // then 150..190, and the reader sees it at 200.
        let mut p = Path::new(100, 200);
        assert_eq!(p.claim(100, 110), 10);
        assert_eq!(p.claim(110, 111), 1);
        assert_eq!(p.claim(50, 140), 29);
        assert_eq!(p.claim(150, 190), 40);
        assert_eq!(p.unclaimed(), 10 + 10);
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn parent_keeps_only_self_time_and_overlaps_count_once() {
        let mut p = Path::new(0, 1000);
        // Two children inside a parent round 100..400.
        assert_eq!(p.claim(120, 200), 80);
        assert_eq!(p.claim(180, 260), 60); // overlaps the first child
        assert_eq!(p.claim(300, 320), 20);
        assert_eq!(p.claim(100, 400), 300 - 160);
        // Spans off the path or empty claim nothing.
        assert_eq!(p.claim(1000, 1200), 0);
        assert_eq!(p.claim(500, 500), 0);
        assert_eq!(p.unclaimed(), 1000 - 300);
        // An inverted path is empty.
        assert_eq!(Path::new(10, 5).len(), 0);
    }
}
