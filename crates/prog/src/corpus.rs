//! The program corpus: the manager-side collection of retained programs
//! (§2.6.2), extended with TORPEDO's oracle-score metadata — only "the set
//! of mutated workloads that generated the most adversarial resource usage
//! is recorded into the corpus" (§3.5.2).

use std::sync::Arc;

use crate::program::Program;

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    /// The program — a copy-on-write handle shared with the campaign
    /// batch it was admitted from.
    pub program: Arc<Program>,
    /// Distinct coverage signals this program contributed when admitted.
    pub new_signals: usize,
    /// Best oracle score observed for a batch containing this program.
    pub best_score: f64,
    /// Whether an oracle ever flagged this program as adversarial.
    pub flagged: bool,
}

/// The corpus.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    items: Vec<CorpusItem>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus { items: Vec::new() }
    }

    /// Admit a program.
    pub fn add(&mut self, item: CorpusItem) {
        self.items.push(item);
    }

    /// All items.
    pub fn items(&self) -> &[CorpusItem] {
        &self.items
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A donor program for splicing, selected by `pick` in `[0, 1)`.
    /// Returned as the shared handle so callers can clone it for free.
    pub fn donor(&self, pick: f64) -> Option<&Arc<Program>> {
        if self.items.is_empty() {
            return None;
        }
        let idx = ((pick.clamp(0.0, 0.999_999)) * self.items.len() as f64) as usize;
        Some(&self.items[idx].program)
    }

    /// Serialize the corpus to its on-disk text form: one header comment
    /// plus the program per entry, entries separated by blank lines — the
    /// syz-db-style persistence that lets campaigns resume with the corpus
    /// of a previous run.
    pub fn save(&self, table: &[crate::desc::SyscallDesc]) -> String {
        let mut out = String::new();
        for item in &self.items {
            out.push_str(&format!(
                "# signals={} score={:.4} flagged={}\n",
                item.new_signals, item.best_score, item.flagged
            ));
            out.push_str(&crate::serialize::serialize(&item.program, table));
            out.push('\n');
        }
        out
    }

    /// Parse a corpus back from [`Corpus::save`]'s format.
    ///
    /// # Errors
    /// The underlying [`crate::serialize::ParseError`] with the entry index.
    pub fn load(
        text: &str,
        table: &[crate::desc::SyscallDesc],
    ) -> Result<Corpus, (usize, crate::serialize::ParseError)> {
        let mut corpus = Corpus::new();
        for (idx, chunk) in text.split("\n\n").enumerate() {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            let mut new_signals = 0usize;
            let mut best_score = 0.0f64;
            let mut flagged = false;
            let mut body = String::new();
            for line in chunk.lines() {
                if let Some(meta) = line.strip_prefix("# ") {
                    for field in meta.split_whitespace() {
                        if let Some(v) = field.strip_prefix("signals=") {
                            new_signals = v.parse().unwrap_or(0);
                        } else if let Some(v) = field.strip_prefix("score=") {
                            best_score = v.parse().unwrap_or(0.0);
                        } else if let Some(v) = field.strip_prefix("flagged=") {
                            flagged = v == "true";
                        }
                    }
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            let program = crate::serialize::deserialize(&body, table).map_err(|e| (idx, e))?;
            corpus.add(CorpusItem {
                program: Arc::new(program),
                new_signals,
                best_score,
                flagged,
            });
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(score: f64, flagged: bool) -> CorpusItem {
        CorpusItem {
            program: Arc::new(Program::new()),
            new_signals: 1,
            best_score: score,
            flagged,
        }
    }

    #[test]
    fn add_and_len() {
        let mut corpus = Corpus::new();
        assert!(corpus.is_empty());
        corpus.add(item(1.0, false));
        assert_eq!(corpus.len(), 1);
    }

    #[test]
    fn donor_maps_unit_interval() {
        let mut corpus = Corpus::new();
        assert!(corpus.donor(0.5).is_none());
        corpus.add(item(0.0, false));
        corpus.add(item(0.0, false));
        assert!(corpus.donor(0.0).is_some());
        assert!(corpus.donor(0.999).is_some());
        assert!(corpus.donor(1.5).is_some(), "clamped");
    }

    #[test]
    fn save_load_round_trip() {
        use crate::table::build_table;
        let table = build_table();
        let mut corpus = Corpus::new();
        let program = crate::serialize::deserialize(
            "r0 = socket(0x10, 0x3, 0x9)\nsendto(r0, 0x0, 0x24, 0x0, 0x0, 0xc)\n",
            &table,
        )
        .unwrap();
        corpus.add(CorpusItem {
            program: Arc::new(program),
            new_signals: 4,
            best_score: 31.25,
            flagged: true,
        });
        corpus.add(CorpusItem {
            program: Arc::new(crate::serialize::deserialize("sync()\n", &table).unwrap()),
            new_signals: 1,
            best_score: 12.0,
            flagged: false,
        });
        let text = corpus.save(&table);
        let back = Corpus::load(&text, &table).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.items()[0].new_signals, 4);
        assert!((back.items()[0].best_score - 31.25).abs() < 1e-9);
        assert!(back.items()[0].flagged);
        assert_eq!(back.items()[0].program, corpus.items()[0].program);
        assert!(!back.items()[1].flagged);
    }

    #[test]
    fn load_reports_bad_entry_index() {
        use crate::table::build_table;
        let table = build_table();
        let text = "# signals=1 score=1 flagged=false\nsync()\n\n# signals=1 score=1 flagged=false\nbogus()\n";
        let err = Corpus::load(text, &table).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
