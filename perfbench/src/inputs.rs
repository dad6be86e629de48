//! Seeded inputs: the XML documents, the XPath query instances and the op
//! script of one workload, plus the oracle answers.
//!
//! The database only ever sees XML strings and XPath strings.  The oracle
//! runs the brute-force `structure_match` over the generator's own
//! documents (not over anything the database parsed), so a parser or index
//! defect cannot hide behind a shared code path.

use xseq::datagen::{DblpGenerator, XmarkGenerator, XmarkOptions};
use xseq::xml::matcher::structure_match;
use xseq::xml::{write_document, Document, NodeId, SymbolTable};
use xseq::{parse_xpath, DocId};

/// splitmix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which generator and query templates a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Xmark,
    Dblp,
}

/// One query template of the paper with its share of the mix.
struct Template {
    name: &'static str,
    /// Queries of this template in one round of the read script, which
    /// cycles through its instances; also its weight in the churn stream.
    per_round: usize,
    /// Distinct literal draws (1 for a template without literals).
    instances: usize,
}

/// XMark Q1–Q3 (Table 4).  All three are planner-bound and close in
/// latency; Q2 holds 60% of the mix so the median is always one of its
/// samples.  A round runs every instance of every template.
const XMARK_TEMPLATES: &[Template] = &[
    Template {
        name: "Q1",
        per_round: 42,
        instances: 42,
    },
    Template {
        name: "Q2",
        per_round: 126,
        instances: 42,
    },
    Template {
        name: "Q3",
        per_round: 42,
        instances: 42,
    },
];

/// DBLP Q1–Q4 (Table 8).  Q1 (`/inproceedings/title`, more than half of
/// all documents, gathered from every shard) holds 55% of the mix so the
/// median is always one of its samples; the selective Q3/Q4 author
/// searches, whose latency depends on the drawn name, take most of the
/// time and set the tail.  A round runs every instance of every template.
const DBLP_TEMPLATES: &[Template] = &[
    Template {
        name: "Q1",
        per_round: 176,
        instances: 1,
    },
    Template {
        name: "Q2",
        per_round: 32,
        instances: 32,
    },
    Template {
        name: "Q3",
        per_round: 64,
        instances: 48,
    },
    Template {
        name: "Q4",
        per_round: 48,
        instances: 47,
    },
];

fn templates(family: Family) -> &'static [Template] {
    match family {
        Family::Xmark => XMARK_TEMPLATES,
        Family::Dblp => DBLP_TEMPLATES,
    }
}

/// Percentage of queries in a churn stream; the rest are inserts and
/// removes in equal number.  Queries there check answers over a live
/// delta; the timed queries run between churn pieces.
const CHURN_QUERY_PCT: usize = 4;

/// One distinct query instance.
#[derive(Debug, Clone)]
pub struct Query {
    pub template: &'static str,
    pub text: String,
}

/// One operation of a workload's op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run query instance `i`.
    Query(usize),
    /// Insert fresh document `i`.
    Insert(usize),
    /// Remove the live document at position `draw % live` of the live set.
    Remove(u64),
    /// `Database::compact`.
    Compact,
}

/// Everything a workload run needs, generated from its seed.
#[derive(Debug)]
pub struct Inputs {
    /// Documents the database is built from.
    pub base: Vec<String>,
    /// Documents inserted by the op stream (from another seed).
    pub fresh: Vec<String>,
    /// Distinct query instances.
    pub queries: Vec<Query>,
    /// Per input document (base, then fresh), the bit set of query
    /// instances it matches according to the brute-force matcher.
    pub matches: Vec<u128>,
    rng: Rng,
}

impl Inputs {
    /// Generates `base_docs` + `fresh_docs` documents and the query
    /// instances, and runs the oracle over every (document, query) pair.
    pub fn generate(family: Family, seed: u64, base_docs: usize, fresh_docs: usize) -> Self {
        let mut st = SymbolTable::default();
        let base = generate_docs(family, seed, base_docs, &mut st);
        let fresh = generate_docs(family, seed ^ 0xf2e5_4d0c_5eed_0001, fresh_docs, &mut st);
        let mut rng = Rng::new(seed ^ 0x0071_7e41_a15e_ed00);
        let mut queries = Vec::new();
        for t in templates(family) {
            let mut drawn = 0;
            // Bounded retries: a template whose literal pool is smaller than
            // `instances` settles for fewer distinct draws.
            for _ in 0..t.instances * 8 {
                if drawn == t.instances {
                    break;
                }
                let text = draw_query(family, t.name, &base, &st, &mut rng);
                if queries.iter().any(|q: &Query| q.text == text) {
                    continue;
                }
                queries.push(Query {
                    template: t.name,
                    text,
                });
                drawn += 1;
            }
        }
        assert!(queries.len() <= 128, "match masks hold at most 128 queries");
        let patterns: Vec<_> = queries
            .iter()
            .map(|q| parse_xpath(&q.text, &mut st).expect("template queries parse"))
            .collect();
        let matches = base
            .iter()
            .chain(&fresh)
            .map(|doc| {
                patterns
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| structure_match(p, doc))
                    .fold(0u128, |m, (i, _)| m | 1 << i)
            })
            .collect();
        Inputs {
            base: base.iter().map(|d| write_document(d, &st)).collect(),
            fresh: fresh.iter().map(|d| write_document(d, &st)).collect(),
            queries,
            matches,
            rng,
        }
    }

    /// Instances of template `name`, in draw order.
    fn instances_of(&self, name: &str) -> Vec<usize> {
        (0..self.queries.len())
            .filter(|&i| self.queries[i].template == name)
            .collect()
    }

    /// One round of the read script: `per_round` queries of each template,
    /// cycling through its instances, in a seeded shuffled order.  The
    /// read phase repeats the round, so every round does the same work and
    /// rounds differ only in how fast the host ran them.
    pub fn read_round(&mut self, family: Family) -> Vec<Op> {
        let mut round = Vec::new();
        for t in templates(family) {
            let of_t = self.instances_of(t.name);
            round.extend((0..t.per_round).map(|i| Op::Query(of_t[i % of_t.len()])));
        }
        for i in (1..round.len()).rev() {
            round.swap(i, self.rng.below(i + 1));
        }
        round
    }

    /// A churn stream of `pieces` pieces, each of `per_piece` inserts of
    /// fresh documents, as many removes of live documents (so the database
    /// keeps its size) and `CHURN_QUERY_PCT`% queries, ended by a
    /// compaction.  Every piece has the same seeded order of op kinds and
    /// the same queries, so a position of one piece does the same kind of
    /// work as in every other piece.  The queries are spread evenly over
    /// the read round grouped by template, so they keep the round's
    /// template shares.  Uses `pieces * per_piece` fresh documents.
    pub fn churn_script(&mut self, round: &[Op], pieces: usize, per_piece: usize) -> Vec<Op> {
        assert!(
            pieces * per_piece <= self.fresh.len(),
            "not enough fresh documents"
        );
        let queries = (2 * per_piece * CHURN_QUERY_PCT / (100 - CHURN_QUERY_PCT)).max(1);
        // Instances are numbered template by template.
        let mut by_template = round.to_vec();
        by_template.sort_unstable_by_key(|op| match op {
            Op::Query(q) => *q,
            _ => usize::MAX,
        });
        let mut pattern: Vec<Op> = (0..per_piece)
            .map(|_| Op::Insert(0))
            .chain((0..per_piece).map(|_| Op::Remove(0)))
            .chain((0..queries).map(|i| by_template[(2 * i + 1) * round.len() / (2 * queries)]))
            .collect();
        for i in (1..pattern.len()).rev() {
            pattern.swap(i, self.rng.below(i + 1));
        }
        let mut inserted = 0;
        let mut ops = Vec::new();
        for _ in 0..pieces {
            for &op in &pattern {
                ops.push(match op {
                    Op::Insert(_) => {
                        inserted += 1;
                        Op::Insert(inserted - 1)
                    }
                    Op::Remove(_) => Op::Remove(self.rng.next_u64()),
                    op => op,
                });
            }
            ops.push(Op::Compact);
        }
        ops
    }

    /// The oracle answer of query `q` over a live set: `live[id]` is the
    /// input document (base index, or `base.len()` + fresh index) behind
    /// database id `id`, `None` once removed.
    pub fn expected(&self, q: usize, live: &[Option<u32>]) -> Vec<DocId> {
        live.iter()
            .enumerate()
            .filter_map(|(id, d)| {
                let d = (*d)? as usize;
                (self.matches[d] >> q & 1 == 1).then_some(id as DocId)
            })
            .collect()
    }
}

fn generate_docs(family: Family, seed: u64, n: usize, st: &mut SymbolTable) -> Vec<Document> {
    match family {
        Family::Xmark => XmarkGenerator::new(seed, XmarkOptions::default()).generate(n, st),
        Family::Dblp => DblpGenerator::new(seed).generate(n, st),
    }
}

/// Element children of `n` named `name`.
fn children_named<'a>(
    doc: &'a Document,
    st: &'a SymbolTable,
    n: NodeId,
    name: &'a str,
) -> impl Iterator<Item = NodeId> + 'a {
    doc.children(n)
        .iter()
        .copied()
        .filter(move |&c| doc.sym(c).as_elem().is_some_and(|d| st.name(d) == name))
}

/// The text value of the first `name` element child of `n`.
fn text_of(doc: &Document, st: &SymbolTable, n: NodeId, name: &str) -> Option<String> {
    let c = children_named(doc, st, n, name).next()?;
    let v = doc.sym(*doc.children(c).first()?).as_value()?;
    st.values.resolve(v).map(str::to_owned)
}

/// XPath literals are single-quoted; the generators never emit quotes.
fn lit(s: &str) -> &str {
    assert!(!s.contains('\''), "literal {s:?} would break the query");
    s
}

/// Draws one instance of `template` whose literals come from a random
/// generated document, so every instance has at least one answer.
fn draw_query(
    family: Family,
    template: &str,
    docs: &[Document],
    st: &SymbolTable,
    rng: &mut Rng,
) -> String {
    loop {
        let doc = &docs[rng.below(docs.len())];
        let root = doc.root().expect("generated documents have a root");
        let drawn = match (family, template) {
            (Family::Xmark, "Q1") => {
                children_named(doc, st, root, "item")
                    .next()
                    .and_then(|item| {
                        let loc = text_of(doc, st, item, "location")?;
                        let mailbox = children_named(doc, st, item, "mailbox").next()?;
                        let mails: Vec<NodeId> = children_named(doc, st, mailbox, "mail").collect();
                        let date = text_of(doc, st, mails[rng.below(mails.len())], "date")?;
                        Some(format!(
                            "/site//item[location='{}']/mailbox/mail/date[text='{}']",
                            lit(&loc),
                            lit(&date)
                        ))
                    })
            }
            (Family::Xmark, "Q2") => children_named(doc, st, root, "person")
                .next()
                .and_then(|p| children_named(doc, st, p, "profile").next())
                .and_then(|prof| text_of(doc, st, prof, "age"))
                .map(|age| format!("/site//person/*/age[text='{}']", lit(&age))),
            (Family::Xmark, "Q3") => children_named(doc, st, root, "closed_auction")
                .next()
                .and_then(|ca| {
                    let seller = children_named(doc, st, ca, "seller").next()?;
                    let person = text_of(doc, st, seller, "person")?;
                    let date = text_of(doc, st, ca, "date")?;
                    Some(format!(
                        "//closed_auction[seller/person='{}']/date[text='{}']",
                        lit(&person),
                        lit(&date)
                    ))
                }),
            (Family::Dblp, "Q1") => Some("/inproceedings/title".to_owned()),
            (Family::Dblp, "Q2") => doc
                .sym(root)
                .as_elem()
                .filter(|&d| st.name(d) == "book")
                .and_then(|_| text_of(doc, st, root, "key"))
                .map(|key| format!("/book/[key='{}']/author", lit(&key))),
            (Family::Dblp, "Q3" | "Q4") => {
                let authors: Vec<NodeId> = children_named(doc, st, root, "author").collect();
                let a = authors[rng.below(authors.len())];
                let v = doc.sym(doc.children(a)[0]).as_value();
                let prefix = if template == "Q3" { "/*/" } else { "//" };
                v.and_then(|v| st.values.resolve(v))
                    .map(|name| format!("{prefix}author[text='{}']", lit(name)))
            }
            _ => unreachable!("no template {template} for {family:?}"),
        };
        if let Some(q) = drawn {
            return q;
        }
    }
}
