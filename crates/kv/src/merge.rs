//! K-way merge over memtable and SSTable iterators.
//!
//! Sources are supplied newest-first; when several sources hold the same
//! key, the newest wins and older versions (including shadowed values under
//! a tombstone) are consumed silently. The merged stream still yields
//! tombstones — callers decide whether to surface or drop them (scans drop
//! them, compaction keeps them until a full merge).

use crate::error::Result;
use crate::types::Bytes;

/// A versioned key-value item flowing through the merge: `None` value is a
/// tombstone.
pub type MergeItem = (Bytes, Option<Bytes>);

/// Merges `sources` (newest first) into a single ordered, deduplicated
/// stream.
pub struct MergeIter<'a> {
    sources: Vec<Box<dyn Iterator<Item = Result<MergeItem>> + 'a>>,
    heads: Vec<Option<MergeItem>>,
    /// An error hit while pre-fetching the next head; surfaced on the call
    /// *after* the item that was already complete.
    pending_error: Option<crate::error::KvError>,
    failed: bool,
}

impl<'a> MergeIter<'a> {
    /// Creates a merge over the given sources. `sources[0]` is the newest
    /// (typically the memtable), later entries progressively older.
    pub fn new(sources: Vec<Box<dyn Iterator<Item = Result<MergeItem>> + 'a>>) -> Result<Self> {
        let mut iter = MergeIter {
            heads: Vec::with_capacity(sources.len()),
            sources,
            pending_error: None,
            failed: false,
        };
        for i in 0..iter.sources.len() {
            let head = iter.pull(i)?;
            iter.heads.push(head);
        }
        Ok(iter)
    }

    fn pull(&mut self, i: usize) -> Result<Option<MergeItem>> {
        match self.sources[i].next() {
            Some(Ok(item)) => Ok(Some(item)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }

    fn advance(&mut self, i: usize) -> Result<()> {
        self.heads[i] = self.pull(i)?;
        Ok(())
    }
}

impl Iterator for MergeIter<'_> {
    type Item = Result<MergeItem>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(e) = self.pending_error.take() {
            self.failed = true;
            return Some(Err(e));
        }
        // Find the smallest key; ties resolved to the newest source.
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((key, _)) = head {
                match winner {
                    Some((_, wkey)) if key.as_ref() >= wkey => {}
                    _ => winner = Some((i, key.as_ref())),
                }
            }
        }
        let w = winner?.0;
        let (key, value) = self.heads[w].take()?;
        // Advance the winner and every older source holding the same key.
        for i in 0..self.heads.len() {
            let same = match &self.heads[i] {
                Some((k, _)) => *k == key,
                None => i == w,
            };
            if same || i == w {
                if let Err(e) = self.advance(i) {
                    // The current item is complete; deliver it and surface
                    // the error on the next call.
                    self.pending_error = Some(e);
                    break;
                }
            }
        }
        Some(Ok((key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(
        items: Vec<(&'static str, Option<&'static str>)>,
    ) -> Box<dyn Iterator<Item = Result<MergeItem>>> {
        Box::new(items.into_iter().map(|(k, v)| {
            Ok((
                Bytes::copy_from_slice(k.as_bytes()),
                v.map(|v| Bytes::copy_from_slice(v.as_bytes())),
            ))
        }))
    }

    fn collect(m: MergeIter<'_>) -> Vec<(String, Option<String>)> {
        m.map(|r| {
            let (k, v) = r.unwrap();
            (
                String::from_utf8(k.to_vec()).unwrap(),
                v.map(|v| String::from_utf8(v.to_vec()).unwrap()),
            )
        })
        .collect()
    }

    #[test]
    fn disjoint_sources_interleave() {
        let m = MergeIter::new(vec![
            src(vec![("a", Some("1")), ("c", Some("3"))]),
            src(vec![("b", Some("2")), ("d", Some("4"))]),
        ])
        .unwrap();
        let got = collect(m);
        assert_eq!(
            got,
            vec![
                ("a".into(), Some("1".into())),
                ("b".into(), Some("2".into())),
                ("c".into(), Some("3".into())),
                ("d".into(), Some("4".into())),
            ]
        );
    }

    #[test]
    fn newest_source_wins_ties() {
        let m = MergeIter::new(vec![src(vec![("k", Some("new"))]), src(vec![("k", Some("old"))])])
            .unwrap();
        assert_eq!(collect(m), vec![("k".into(), Some("new".into()))]);
    }

    #[test]
    fn tombstone_shadows_older_value() {
        let m =
            MergeIter::new(vec![src(vec![("k", None)]), src(vec![("k", Some("old"))])]).unwrap();
        assert_eq!(collect(m), vec![("k".into(), None)]);
    }

    #[test]
    fn three_way_with_mixed_duplicates() {
        let m = MergeIter::new(vec![
            src(vec![("b", Some("b-new")), ("d", None)]),
            src(vec![("a", Some("a-mid")), ("b", Some("b-mid"))]),
            src(vec![("a", Some("a-old")), ("c", Some("c-old")), ("d", Some("d-old"))]),
        ])
        .unwrap();
        assert_eq!(
            collect(m),
            vec![
                ("a".into(), Some("a-mid".into())),
                ("b".into(), Some("b-new".into())),
                ("c".into(), Some("c-old".into())),
                ("d".into(), None),
            ]
        );
    }

    #[test]
    fn empty_sources() {
        let m = MergeIter::new(vec![src(vec![]), src(vec![])]).unwrap();
        assert!(collect(m).is_empty());
        let m = MergeIter::new(vec![]).unwrap();
        assert!(collect(m).is_empty());
    }

    #[test]
    fn error_propagates_and_stops() {
        let err_src: Box<dyn Iterator<Item = Result<MergeItem>>> = Box::new(
            vec![
                Ok((Bytes::from(&b"a"[..]), Some(Bytes::from(&b"1"[..])))),
                Err(crate::error::KvError::corruption("boom")),
            ]
            .into_iter(),
        );
        let mut m = MergeIter::new(vec![err_src]).unwrap();
        assert!(m.next().unwrap().is_ok());
        assert!(m.next().unwrap().is_err());
        assert!(m.next().is_none(), "iterator fuses after error");
    }
}
