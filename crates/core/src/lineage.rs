//! The lineage feature (thesis §4.4.2, Figure 4.18).
//!
//! Cluster analysis is a multi-step process; after dozens of operations the
//! analyst "may fail to remember what operations have been used to create
//! previous intermediate results". The lineage tracker records every
//! derived table as a node in a DAG: its kind, the operation and parameters
//! that created it, free-form user comments, and edges to the tables it was
//! derived from (a GAP table has two SUMY parents, so it "appears under
//! both SUMY tables" in the explorer view).
//!
//! Deletion supports the thesis's two modes: *contents only* (mark the node
//! dematerialized — its relational export is then empty — and keep the
//! metadata so the table can be regenerated) and *cascade* (drop the node,
//! its metadata, and everything derived from it).

use std::collections::BTreeMap;
use std::fmt;

/// What kind of table a lineage node describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An extensional data set (tissue-type table or custom ENUM).
    Enum,
    /// A mined fascicle (both its ENUM and SUMY identities).
    Fascicle,
    /// A SUMY table.
    Sumy,
    /// A GAP table.
    Gap,
    /// A derived top-gap table.
    TopGap,
    /// A GAP-comparison result.
    Compare,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeKind::Enum => "ENUM",
            NodeKind::Fascicle => "Fascicle",
            NodeKind::Sumy => "SUMY",
            NodeKind::Gap => "GAP",
            NodeKind::TopGap => "TopGap",
            NodeKind::Compare => "Compare",
        })
    }
}

/// Identifier of a lineage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// One recorded operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageNode {
    /// Node id.
    pub id: NodeId,
    /// The derived table's name (unique among live nodes).
    pub name: String,
    /// Table kind.
    pub kind: NodeKind,
    /// Operation that created it (e.g. `Fascicles`, `diff`, `intersect`).
    pub operation: String,
    /// Operation parameters as display pairs — Figure 4.18's "Operation
    /// Info" panel (compact dimension, binary file, batch, ...).
    pub params: Vec<(String, String)>,
    /// Free-form user comments ("The compact tags in this fascicle are
    /// very interesting").
    pub comment: String,
    /// Parent node ids (inputs of the operation).
    pub parents: Vec<NodeId>,
    /// Whether the table's contents are materialized (false after a
    /// contents-only delete; the node's metadata allows regeneration).
    pub materialized: bool,
}

/// Errors raised by the tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// Unknown node id.
    NotFound(u32),
    /// A table with this name is already tracked.
    DuplicateName(String),
    /// A parent id does not exist.
    MissingParent(u32),
    /// A stored node's id does not follow the one before it.
    IdOutOfOrder(u32),
    /// A stored node's id was never issued: it is not below the next id.
    IdNotIssued(u32),
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::NotFound(id) => write!(f, "no lineage node {id}"),
            LineageError::DuplicateName(name) => {
                write!(f, "lineage already tracks a table named {name:?}")
            }
            LineageError::MissingParent(id) => {
                write!(f, "parent node {id} does not exist")
            }
            LineageError::IdOutOfOrder(id) => {
                write!(f, "node {id} does not follow the node before it")
            }
            LineageError::IdNotIssued(id) => {
                write!(f, "node {id} is not below the next id")
            }
        }
    }
}

impl std::error::Error for LineageError {}

/// The operation-history DAG.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    nodes: BTreeMap<u32, LineageNode>,
    next_id: u32,
}

impl Lineage {
    /// Create an empty tracker.
    pub fn new() -> Lineage {
        Lineage::default()
    }

    /// Reinstall a stored DAG exactly as it was: the nodes keep their ids
    /// and the next table recorded gets `next_id`. Refuses ids that do not
    /// ascend strictly or are not below `next_id`, a name that repeats, and
    /// a parent that is not an earlier node — none of which a tracker can
    /// reach, since a cascade delete takes every descendant with it.
    pub fn from_parts(nodes: Vec<LineageNode>, next_id: u32) -> Result<Lineage, LineageError> {
        let mut lineage = Lineage {
            nodes: BTreeMap::new(),
            next_id,
        };
        let mut names = std::collections::BTreeSet::new();
        for node in nodes {
            let id = node.id.0;
            if lineage
                .nodes
                .last_key_value()
                .is_some_and(|(&prev, _)| id <= prev)
            {
                return Err(LineageError::IdOutOfOrder(id));
            }
            if id >= next_id {
                return Err(LineageError::IdNotIssued(id));
            }
            if !names.insert(node.name.clone()) {
                return Err(LineageError::DuplicateName(node.name));
            }
            if let Some(p) = node
                .parents
                .iter()
                .find(|p| !lineage.nodes.contains_key(&p.0))
            {
                return Err(LineageError::MissingParent(p.0));
            }
            lineage.nodes.insert(id, node);
        }
        Ok(lineage)
    }

    /// The id the next recorded table will get.
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Record a new derived table.
    pub fn record(
        &mut self,
        name: &str,
        kind: NodeKind,
        operation: &str,
        params: Vec<(String, String)>,
        parents: &[NodeId],
    ) -> Result<NodeId, LineageError> {
        if self.find_by_name(name).is_some() {
            return Err(LineageError::DuplicateName(name.to_string()));
        }
        for p in parents {
            if !self.nodes.contains_key(&p.0) {
                return Err(LineageError::MissingParent(p.0));
            }
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(
            id.0,
            LineageNode {
                id,
                name: name.to_string(),
                kind,
                operation: operation.to_string(),
                params,
                comment: String::new(),
                parents: parents.to_vec(),
                materialized: true,
            },
        );
        Ok(id)
    }

    /// Look up a node.
    pub fn get(&self, id: NodeId) -> Result<&LineageNode, LineageError> {
        self.nodes.get(&id.0).ok_or(LineageError::NotFound(id.0))
    }

    /// Find a live node by table name.
    pub fn find_by_name(&self, name: &str) -> Option<&LineageNode> {
        self.nodes.values().find(|n| n.name == name)
    }

    /// Attach or replace the user comment on a node.
    pub fn set_comment(&mut self, id: NodeId, comment: &str) -> Result<(), LineageError> {
        let node = self
            .nodes
            .get_mut(&id.0)
            .ok_or(LineageError::NotFound(id.0))?;
        node.comment = comment.to_string();
        Ok(())
    }

    /// Direct children of a node (tables derived from it in one step).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.parents.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// All nodes transitively derived from `id`, including itself.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if out.contains(&cur) {
                continue;
            }
            out.push(cur);
            stack.extend(self.children(cur));
        }
        out.sort();
        out
    }

    /// Contents-only delete: mark the table dematerialized but keep its
    /// metadata for regeneration. Returns the table names whose contents
    /// no longer show (just this one).
    pub fn delete_contents(&mut self, id: NodeId) -> Result<Vec<String>, LineageError> {
        let node = self
            .nodes
            .get_mut(&id.0)
            .ok_or(LineageError::NotFound(id.0))?;
        node.materialized = false;
        Ok(vec![node.name.clone()])
    }

    /// Mark a dematerialized table as regenerated.
    pub fn rematerialize(&mut self, id: NodeId) -> Result<(), LineageError> {
        let node = self
            .nodes
            .get_mut(&id.0)
            .ok_or(LineageError::NotFound(id.0))?;
        node.materialized = true;
        Ok(())
    }

    /// Cascade delete: remove the node, its metadata, "and all other tables
    /// generated from it". Returns the removed table names so the caller
    /// can drop the tables themselves.
    pub fn delete_cascade(&mut self, id: NodeId) -> Result<Vec<String>, LineageError> {
        if !self.nodes.contains_key(&id.0) {
            return Err(LineageError::NotFound(id.0));
        }
        let doomed = self.descendants(id);
        let mut names = Vec::with_capacity(doomed.len());
        for d in doomed {
            if let Some(node) = self.nodes.remove(&d.0) {
                names.push(node.name);
            }
        }
        Ok(names)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate live nodes in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &LineageNode> {
        self.nodes.values()
    }

    /// Render the explorer view of Figure 4.18: roots at top level, each
    /// node's derivations nested beneath it; nodes with several parents
    /// appear under each parent, as the thesis specifies for GAP tables.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let roots: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.parents.is_empty())
            .map(|n| n.id)
            .collect();
        for root in roots {
            self.render_node(&mut out, root, 0);
        }
        out
    }

    fn render_node(&self, out: &mut String, id: NodeId, depth: usize) {
        let Ok(node) = self.get(id) else { return };
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] ({}{})\n",
            node.name,
            node.kind,
            node.operation,
            if node.materialized {
                ""
            } else {
                "; contents deleted"
            },
        ));
        let mut children = self.children(id);
        children.sort();
        for child in children {
            self.render_node(out, child, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// A miniature of Figure 4.18's history: a brain data set, a fascicle,
    /// two SUMY tables, and a GAP derived from both.
    fn history() -> (Lineage, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut lin = Lineage::new();
        let brain = lin
            .record(
                "Ebrain",
                NodeKind::Enum,
                "select_tissue",
                params(&[("type", "brain")]),
                &[],
            )
            .unwrap();
        let fas = lin
            .record(
                "brain25k_3",
                NodeKind::Fascicle,
                "Fascicles",
                params(&[("compact_dimension", "25000"), ("batch", "6"), ("min", "3")]),
                &[brain],
            )
            .unwrap();
        let s1 = lin
            .record(
                "brain25k_3CancerFasTbl",
                NodeKind::Sumy,
                "aggregate",
                vec![],
                &[fas],
            )
            .unwrap();
        let s2 = lin
            .record(
                "brain25k_3NormalTable",
                NodeKind::Sumy,
                "aggregate",
                vec![],
                &[fas],
            )
            .unwrap();
        let gap = lin
            .record("b25canvsnor_gap1", NodeKind::Gap, "diff", vec![], &[s1, s2])
            .unwrap();
        (lin, brain, fas, s1, s2, gap)
    }

    #[test]
    fn records_and_links() {
        let (lin, brain, fas, s1, s2, gap) = history();
        assert_eq!(lin.len(), 5);
        assert_eq!(lin.children(brain), vec![fas]);
        let mut kids = lin.children(fas);
        kids.sort();
        assert_eq!(kids, vec![s1, s2]);
        // The GAP node hangs under both SUMY parents.
        assert_eq!(lin.children(s1), vec![gap]);
        assert_eq!(lin.children(s2), vec![gap]);
        assert_eq!(lin.get(gap).unwrap().parents, vec![s1, s2]);
    }

    #[test]
    fn duplicate_names_and_missing_parents_rejected() {
        let (mut lin, brain, ..) = history();
        assert_eq!(
            lin.record("Ebrain", NodeKind::Enum, "x", vec![], &[]),
            Err(LineageError::DuplicateName("Ebrain".to_string()))
        );
        assert_eq!(
            lin.record("y", NodeKind::Gap, "x", vec![], &[NodeId(99)]),
            Err(LineageError::MissingParent(99))
        );
        let _ = brain;
    }

    #[test]
    fn comments() {
        let (mut lin, _, fas, ..) = history();
        lin.set_comment(
            fas,
            "The compact tags in this fascicle are very interesting",
        )
        .unwrap();
        assert!(lin.get(fas).unwrap().comment.contains("interesting"));
    }

    #[test]
    fn contents_only_delete_keeps_metadata() {
        let (mut lin, _, fas, ..) = history();
        let dropped = lin.delete_contents(fas).unwrap();
        assert_eq!(dropped, vec!["brain25k_3".to_string()]);
        let node = lin.get(fas).unwrap();
        assert!(!node.materialized);
        assert_eq!(node.operation, "Fascicles"); // metadata survives
        lin.rematerialize(fas).unwrap();
        assert!(lin.get(fas).unwrap().materialized);
    }

    #[test]
    fn cascade_delete_removes_descendants() {
        let (mut lin, brain, fas, s1, s2, gap) = history();
        let removed = lin.delete_cascade(fas).unwrap();
        assert_eq!(removed.len(), 4); // fascicle + 2 SUMY + GAP
        assert_eq!(lin.len(), 1);
        assert!(lin.get(brain).is_ok());
        for id in [fas, s1, s2, gap] {
            assert!(lin.get(id).is_err());
        }
    }

    #[test]
    fn tree_rendering_shows_gap_under_both_parents() {
        let (lin, ..) = history();
        let tree = lin.render_tree();
        assert!(tree.starts_with("Ebrain [ENUM]"));
        // b25canvsnor_gap1 appears twice: once under each SUMY parent.
        assert_eq!(tree.matches("b25canvsnor_gap1").count(), 2);
    }

    #[test]
    fn descendants_are_transitive() {
        let (lin, brain, ..) = history();
        assert_eq!(lin.descendants(brain).len(), 5);
    }
}
