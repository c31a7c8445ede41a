//! Interaction computation: turning a CTree into an HTree.
//!
//! The interaction-computation module of MatRox's compression takes the CTree
//! and the admissibility parameter and computes which node pairs interact as
//! *near* (kept dense) and which interact as *far* (low-rank approximated).
//! The CTree plus these interaction edges is the HTree (Figure 1b).
//!
//! Three structure modes are supported, matching the paper's experiments:
//!
//! * [`Structure::Geometric`] — the admissibility condition
//!   `τ·dist(α,β) > diam(α) + diam(β)` (used for the SMASH comparison,
//!   τ = 0.65 by default);
//! * [`Structure::Budget`] — GOFMM's budget parameter: each leaf keeps at
//!   most `budget · #leaves` nearest leaves as near interactions (budget 0.03
//!   is the paper's "H²-b", budget 0 degenerates to HSS);
//! * [`Structure::Hss`] — weak admissibility: every off-diagonal block is
//!   low-rank (STRUMPACK's only supported structure).

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: the kept ladder work is one std Mutex per node and per far pair, each a Slot taken and put back in a critical section that only moves a value, never held across a pool call or any evaluation; a busy or poisoned cell is a miss (DESIGN.md \"Inspector reuse\")"
)]

use crate::ctree::ClusterTree;
use matrox_linalg::{row_id_of_qr, IdResult, Matrix, ResumableQr};
use matrox_points::{
    kernel_block, kernel_block_symmetric, pair_blocks, pair_blocks_by, Kernel, PointSet,
};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, TryLockError};

/// HMatrix structure selection (admissibility flavour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Structure {
    /// Geometric admissibility `τ·dist > diam + diam`.
    Geometric {
        /// Admissibility parameter τ.
        tau: f64,
    },
    /// GOFMM-style budget: fraction of leaves each leaf may keep as near.
    Budget {
        /// Fraction in `[0, 1]`; 0.03 is the paper's H²-b setting.
        budget: f64,
    },
    /// Weak admissibility / HSS: all off-diagonal blocks are far.
    Hss,
}

impl Structure {
    /// The paper's H²-b configuration (GOFMM budget 0.03).
    pub fn h2b() -> Self {
        Structure::Budget { budget: 0.03 }
    }

    /// Short name used in reports ("hss", "h2-b", "geom").
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Geometric { .. } => "geom",
            Structure::Budget { .. } => "h2-b",
            Structure::Hss => "hss",
        }
    }
}

/// The HTree: a CTree plus near/far interaction lists.
///
/// `near[i]` is only non-empty for leaf nodes and contains leaf node ids `j`
/// such that the dense block `D_{i,j}` must be computed.  `far[i]` contains
/// node ids `j` (at the same tree level as `i`) such that the low-rank
/// coupling block `B_{i,j}` must be computed.  Both lists are *directed*: if
/// `(i, j)` is present, `(j, i)` is present as well, mirroring the loop
/// structure in Figure 1d of the paper.
///
/// The HTree also keeps the dense blocks of its near lists once they are
/// evaluated ([`HTree::near_blocks`]): they depend on the points, the tree
/// and the kernel but not on the accuracy, so every p2 of an accuracy
/// sweep over one p1 shares them.  From the second p2 on it also keeps
/// what each rung's accuracy-dependent work leaves, for the next rung to
/// go on from ([`HTree::ladder`]).  It can keep a copy of
/// the points it was built over ([`HTree::keep_points`]), so that a later
/// stage can check it is handed the same ones ([`HTree::built_over`]) and
/// then run on the copy ([`HTree::kept_points`]).
#[derive(Debug, Clone)]
pub struct HTree {
    /// Near (dense) interaction lists, indexed by node id.
    pub near: Vec<Vec<usize>>,
    /// Far (low-rank) interaction lists, indexed by node id.
    pub far: Vec<Vec<usize>>,
    /// The structure mode used to build the lists.
    pub structure: Structure,
    /// The points [`HTree::keep_points`] kept.  A clone shares them.
    points: Option<Arc<Points>>,
    /// The first near field [`HTree::near_blocks`] evaluated, with every
    /// input it read.  A clone shares it.
    near_memo: OnceLock<Arc<NearField>>,
}

/// A copy of a point set, compared by bits.
struct Points(PointSet);

impl Points {
    /// Whether `points` is this copy itself, or holds its coordinates bit
    /// for bit.  The copy is never mutated, so a reference to it holds
    /// its bits.
    fn are(&self, points: &PointSet) -> bool {
        let (kept, coords) = (self.0.coords(), points.coords());
        std::ptr::eq(&self.0, points)
            || (self.0.dim() == points.dim()
                && kept.len() == coords.len()
                && kept
                    .iter()
                    .zip(coords)
                    .all(|(a, b)| a.to_bits() == b.to_bits()))
    }
}

impl fmt::Debug for Points {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Points({} x {})", self.0.len(), self.0.dim())
    }
}

/// Dense near blocks `((i, j), D_{i,j})` in near-list order, behind one
/// shared allocation: handing them out again copies nothing.
pub type NearBlocks = Arc<NearSet>;

/// The near blocks of one evaluation, and the first packing of them a later
/// stage asked for ([`NearSet::packed`]).  Derefs to the blocks.
pub struct NearSet {
    blocks: Vec<((usize, usize), Matrix)>,
    packed: OnceLock<Packed>,
}

/// A buffer packed from a [`NearSet`]'s blocks, and the grouping of pairs it
/// was packed in.
struct Packed {
    groups: Vec<Vec<(usize, usize)>>,
    values: Arc<Vec<f64>>,
}

impl From<Vec<((usize, usize), Matrix)>> for NearSet {
    fn from(blocks: Vec<((usize, usize), Matrix)>) -> Self {
        NearSet {
            blocks,
            packed: OnceLock::new(),
        }
    }
}

impl std::ops::Deref for NearSet {
    type Target = [((usize, usize), Matrix)];

    fn deref(&self) -> &Self::Target {
        &self.blocks
    }
}

impl fmt::Debug for NearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.blocks, f)
    }
}

impl NearSet {
    /// The buffer `pack` packs these blocks into, visiting their pairs in
    /// the order `groups` lists them; `pack` must read nothing else.
    ///
    /// The first call keeps its buffer with a copy of `groups`, and a later
    /// call with equal groups gets that allocation back without calling
    /// `pack`.  A call with other groups packs afresh and keeps nothing.
    pub fn packed(
        &self,
        groups: &[Vec<(usize, usize)>],
        pack: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        // `get` and `set`, not `get_or_init`: `pack` runs on the pool (see
        // `HTree::near_blocks`).
        let kept = self.packed.get();
        if let Some(p) = kept.filter(|p| p.groups == groups) {
            return Arc::clone(&p.values);
        }
        let values = Arc::new(pack());
        if kept.is_none() {
            // A concurrent first call may have filled the cell meanwhile;
            // its buffer is the same bits.
            let _ = self.packed.set(Packed {
                groups: groups.to_vec(),
                values: Arc::clone(&values),
            });
        }
        values
    }
}

/// Near blocks and the exact inputs they were evaluated from: the kernel
/// and the coordinates by bits, the near lists, and the point indices of
/// every node a near pair reads.  It also holds the work an accuracy
/// ladder keeps once a second call over the same inputs asks for it
/// ([`HTree::ladder`]).
struct NearField {
    kernel: (u8, [u64; 2]),
    points: Arc<Points>,
    near: Vec<Vec<usize>>,
    /// `(node, tree.indices(node))` for every node in a near pair, ascending.
    rows: Vec<(usize, Vec<usize>)>,
    blocks: NearBlocks,
    ladder: OnceLock<Arc<LadderField>>,
}

impl fmt::Debug for NearField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kept = self.ladder.get().map(|l| l.counts()).unwrap_or_default();
        write!(
            f,
            "NearField({} blocks, {} node QRs and {} coupling blocks kept)",
            self.blocks.len(),
            kept.nodes_kept,
            kept.pairs_kept
        )
    }
}

/// A cell of kept ladder work.  A call takes it (`Busy`) and puts its own
/// work back ([`Lease`]); a call that finds it busy works without it.
enum Slot<T> {
    Empty,
    Busy,
    Kept(T),
}

/// One node's pivoted QR of its transposed sample block `K(samples,
/// rows)`, paused at the stop of the last call that used it, with the
/// inputs beyond the near field's key that it read.
struct NodeQr {
    rows: Vec<usize>,
    samples: Vec<usize>,
    qr: ResumableQr,
    last: NodeUse,
}

/// What the last call did with a node's QR.
#[derive(Debug, Clone, Copy)]
enum NodeUse {
    /// Factored it afresh, in so many steps.
    Fresh(usize),
    /// Went on from the kept pause, in so many steps.
    Resumed(usize),
    /// Read its stop off the steps already taken.
    Read,
}

/// One far pair's coupling block `K(rows, cols)`, and the entries the last
/// call evaluated and copied from an earlier block.
struct PairBlock {
    rows: Vec<usize>,
    cols: Vec<usize>,
    block: Matrix,
    evaluated: usize,
    copied: usize,
}

/// The work an accuracy ladder keeps: one cell per node id and one per
/// position in the far lists.  Each cell holds its own key, so the field
/// itself is keyed on the near field's inputs only.
struct LadderField {
    nodes: Vec<Mutex<Slot<NodeQr>>>,
    pairs: Vec<Mutex<Slot<PairBlock>>>,
}

impl LadderField {
    fn new(nodes: usize, pairs: usize) -> Self {
        fn cells<T>(n: usize) -> Vec<Mutex<Slot<T>>> {
            (0..n).map(|_| Mutex::new(Slot::Empty)).collect()
        }
        LadderField {
            nodes: cells(nodes),
            pairs: cells(pairs),
        }
    }

    /// The cells' last uses, summed; busy cells are skipped.
    fn counts(&self) -> LadderCounts {
        let mut c = LadderCounts::default();
        let usize_bytes = std::mem::size_of::<usize>();
        for cell in &self.nodes {
            if let Ok(slot) = cell.try_lock() {
                if let Slot::Kept(node) = &*slot {
                    c.nodes_kept += 1;
                    c.bytes +=
                        node.qr.bytes() + (node.rows.len() + node.samples.len()) * usize_bytes;
                    match node.last {
                        NodeUse::Fresh(steps) => {
                            c.nodes_fresh += 1;
                            c.qr_steps += steps;
                        }
                        NodeUse::Resumed(steps) => {
                            c.nodes_resumed += 1;
                            c.qr_steps += steps;
                        }
                        NodeUse::Read => c.nodes_read += 1,
                    }
                }
            }
        }
        for cell in &self.pairs {
            if let Ok(slot) = cell.try_lock() {
                if let Slot::Kept(pair) = &*slot {
                    c.pairs_kept += 1;
                    c.entries_evaluated += pair.evaluated;
                    c.entries_copied += pair.copied;
                    c.bytes += pair.block.len() * std::mem::size_of::<f64>()
                        + (pair.rows.len() + pair.cols.len()) * usize_bytes;
                }
            }
        }
        c
    }
}

/// What the kept ladder work did at its cells' last use, summed over the
/// cells ([`HTree::ladder_counts`]).  On a ladder run in order, each rung
/// uses every cell, so read after a rung it is that rung's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderCounts {
    /// Nodes whose paused QR is kept.
    pub nodes_kept: usize,
    /// Nodes that went on from their kept QR to a tighter stop.
    pub nodes_resumed: usize,
    /// Nodes that read their stop off the kept QR's steps.
    pub nodes_read: usize,
    /// Nodes factored afresh (no kept QR over their rows and samples).
    pub nodes_fresh: usize,
    /// QR steps (reflections) the resumed and fresh nodes ran.
    pub qr_steps: usize,
    /// Far pairs whose coupling block is kept.
    pub pairs_kept: usize,
    /// Coupling entries evaluated.
    pub entries_evaluated: usize,
    /// Coupling entries copied from a kept block.
    pub entries_copied: usize,
    /// Bytes the kept work holds (QR buffers, blocks and keys).
    pub bytes: usize,
}

/// A cell taken by one call, with what it kept when its key matched.  The
/// call puts its own work back ([`Lease::put`]); a lease dropped without
/// that (a panic in between) empties the cell, so no call reads work that
/// was abandoned midway.
struct Lease<'a, T> {
    cell: Option<&'a Mutex<Slot<T>>>,
}

impl<'a, T> Lease<'a, T> {
    /// Take `cell` and what it keeps if `matches` it.  A missing, busy or
    /// poisoned cell gives a lease that keeps nothing; kept work that does
    /// not match is dropped, to be replaced.
    fn take(
        cell: Option<&'a Mutex<Slot<T>>>,
        matches: impl FnOnce(&T) -> bool,
    ) -> (Self, Option<T>) {
        let Some(cell) = cell else {
            return (Lease { cell: None }, None);
        };
        let mut slot = match cell.try_lock() {
            Ok(slot) if !matches!(*slot, Slot::Busy) => slot,
            Ok(_) | Err(TryLockError::WouldBlock | TryLockError::Poisoned(_)) => {
                return (Lease { cell: None }, None)
            }
        };
        let kept = match std::mem::replace(&mut *slot, Slot::Busy) {
            Slot::Kept(kept) if matches(&kept) => Some(kept),
            _ => None,
        };
        (Lease { cell: Some(cell) }, kept)
    }

    /// Whether [`Lease::put`] keeps anything.
    fn keeps(&self) -> bool {
        self.cell.is_some()
    }

    /// Put `work` in the cell.
    fn put(mut self, work: T) {
        if let Some(Ok(mut slot)) = self.cell.take().map(Mutex::lock) {
            *slot = Slot::Kept(work);
        }
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        if let Some(Ok(mut slot)) = self.cell.take().map(Mutex::lock) {
            *slot = Slot::Empty;
        }
    }
}

/// The accuracy-dependent work of one compression over a tree, on the
/// kept work of earlier ones where there is any ([`HTree::ladder`]).
pub struct Ladder<'a> {
    points: &'a PointSet,
    kernel: &'a Kernel,
    kept: Option<Arc<LadderField>>,
}

/// One node's ID under way ([`Ladder::node`]).
pub struct NodeTask<'a> {
    points: &'a PointSet,
    kernel: &'a Kernel,
    rows: &'a [usize],
    samples: &'a [usize],
    lease: Lease<'a, NodeQr>,
    kept: Option<NodeQr>,
}

impl<'a> Ladder<'a> {
    /// Start node `id`'s ID over candidate rows `rows` and samples
    /// `samples`: take its kept QR if it factors `K(samples, rows)`.
    pub fn node<'t>(&'t self, id: usize, rows: &'t [usize], samples: &'t [usize]) -> NodeTask<'t> {
        let cell = self.kept.as_ref().and_then(|f| f.nodes.get(id));
        let (lease, kept) = Lease::take(cell, |k: &NodeQr| k.rows == rows && k.samples == samples);
        NodeTask {
            points: self.points,
            kernel: self.kernel,
            rows,
            samples,
            lease,
            kept,
        }
    }

    /// The coupling blocks `((i, j), K(skeleton(i), skeleton(j)))` of every
    /// pair of the far lists `far`, as [`pair_blocks`] gives them, bit for
    /// bit.  A pair whose two skeletons each extend the kept block's or
    /// begin it copies the overlap and evaluates only the new border; any
    /// other evaluates afresh.  Each entry is [`kernel_block`]'s, so
    /// `Kernel::eval`'s.
    pub fn coupling_blocks<'s>(
        &self,
        far: &[Vec<usize>],
        grain: usize,
        skeleton: impl Fn(usize) -> &'s [usize] + Sync,
    ) -> Vec<((usize, usize), Matrix)> {
        let Some(field) = &self.kept else {
            return pair_blocks(self.points, self.kernel, far, grain, skeleton);
        };
        pair_blocks_by(far, grain, |at, i, j, twin| {
            let block = self.coupling_block(field, at, skeleton(i), skeleton(j), i == j);
            let transposed = twin.then(|| block.transpose());
            (block, transposed)
        })
    }

    /// Pair `at`'s block `K(rows, cols)`, grown from or cut out of the kept
    /// one where it can be.
    fn coupling_block(
        &self,
        field: &LadderField,
        at: usize,
        rows: &[usize],
        cols: &[usize],
        diagonal: bool,
    ) -> Matrix {
        let (points, kernel) = (self.points, self.kernel);
        if diagonal {
            return kernel_block_symmetric(points, kernel, rows);
        }
        let overlaps = |k: &PairBlock| prefixes(&k.rows, rows) && prefixes(&k.cols, cols);
        let (lease, kept) = Lease::take(field.pairs.get(at), overlaps);
        let Some(mut kept) = kept else {
            let block = kernel_block(points, kernel, rows, cols);
            if lease.keeps() {
                lease.put(PairBlock {
                    rows: rows.to_vec(),
                    cols: cols.to_vec(),
                    block: block.clone(),
                    evaluated: block.len(),
                    copied: 0,
                });
            }
            return block;
        };
        let (block, evaluated, copied) = grow(points, kernel, &kept, rows, cols);
        let within = rows.len() <= kept.rows.len() && cols.len() <= kept.cols.len();
        if within {
            // Keep the larger block for a later rung.
            (kept.evaluated, kept.copied) = (evaluated, copied);
        } else {
            kept = PairBlock {
                rows: rows.to_vec(),
                cols: cols.to_vec(),
                block: block.clone(),
                evaluated,
                copied,
            };
        }
        lease.put(kept);
        block
    }
}

impl NodeTask<'_> {
    /// The row ID of `K(rows, samples)` at `(tol, max_rank)`
    /// ([`row_id_of_qr`]), bit for bit [`matrox_linalg::row_id_of_transpose`]
    /// of `K(samples, rows)`: read off or resumed from the kept QR, or
    /// evaluated and factored afresh.  The QR is kept for the next call
    /// when this handle holds its cell.
    pub fn row_id(mut self, tol: f64, max_rank: usize) -> IdResult {
        let fresh = self.kept.is_none();
        let mut node = self.kept.take().unwrap_or_else(|| NodeQr {
            rows: Vec::new(),
            samples: Vec::new(),
            qr: ResumableQr::new(kernel_block(
                self.points,
                self.kernel,
                self.samples,
                self.rows,
            )),
            last: NodeUse::Read,
        });
        let before = node.qr.steps();
        let stop = node.qr.advance(tol, max_rank);
        let id = row_id_of_qr(&node.qr, stop);
        if self.lease.keeps() {
            let steps = node.qr.steps() - before;
            node.last = match (fresh, steps) {
                (true, _) => NodeUse::Fresh(steps),
                (false, 0) => NodeUse::Read,
                (false, _) => NodeUse::Resumed(steps),
            };
            if fresh {
                node.rows = self.rows.to_vec();
                node.samples = self.samples.to_vec();
            }
            self.lease.put(node);
        }
        id
    }
}

/// Whether one of `a` and `b` begins the other.
fn prefixes(a: &[usize], b: &[usize]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n]
}

/// `K(rows, cols)` grown from (or cut out of) `kept`, whose rows and
/// columns each begin or extend `rows` and `cols`: the overlap is copied,
/// the rest evaluated.  Returns the block and the entries evaluated and
/// copied.
fn grow(
    points: &PointSet,
    kernel: &Kernel,
    kept: &PairBlock,
    rows: &[usize],
    cols: &[usize],
) -> (Matrix, usize, usize) {
    let (p, q) = (
        kept.rows.len().min(rows.len()),
        kept.cols.len().min(cols.len()),
    );
    let n = cols.len();
    let mut out = Matrix::zeros(rows.len(), n);
    for r in 0..p {
        out.row_mut(r)[..q].copy_from_slice(&kept.block.row(r)[..q]);
    }
    let mut evaluated = 0;
    if q < n && p > 0 {
        let right = kernel_block(points, kernel, &rows[..p], &cols[q..]);
        for r in 0..p {
            out.row_mut(r)[q..].copy_from_slice(right.row(r));
        }
        evaluated += right.len();
    }
    if p < rows.len() {
        let below = kernel_block(points, kernel, &rows[p..], cols);
        out.as_mut_slice()[p * n..].copy_from_slice(below.as_slice());
        evaluated += below.len();
    }
    (out, evaluated, p * q)
}

/// Every node a near pair reads the points of, ascending.
fn near_nodes(near: &[Vec<usize>]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..near.len())
        .filter(|&i| !near[i].is_empty())
        .chain(near.iter().flatten().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl NearField {
    /// `points` is the snapshot of the points the blocks were evaluated
    /// from.
    fn new(
        points: Arc<Points>,
        tree: &ClusterTree,
        kernel: &Kernel,
        near: &[Vec<usize>],
        blocks: NearBlocks,
    ) -> Self {
        NearField {
            kernel: kernel.to_bits(),
            points,
            near: near.to_vec(),
            rows: near_nodes(near)
                .into_iter()
                .map(|id| (id, tree.indices(id).to_vec()))
                .collect(),
            blocks,
            ladder: OnceLock::new(),
        }
    }

    /// Whether these blocks are the ones `(points, tree, kernel, near)`
    /// evaluate to: each input equal to the snapshot, bit for bit.
    fn reads(
        &self,
        points: &PointSet,
        tree: &ClusterTree,
        kernel: &Kernel,
        near: &[Vec<usize>],
    ) -> bool {
        self.kernel == kernel.to_bits()
            && self.near == near
            && self.points.are(points)
            && self
                .rows
                .iter()
                .all(|(id, rows)| *id < tree.num_nodes() && tree.indices(*id) == &rows[..])
    }

    /// The kept ladder work, made empty by the first call: `nodes` node
    /// cells and `pairs` far-pair cells.
    fn ladder_field(&self, nodes: usize, pairs: usize) -> Option<Arc<LadderField>> {
        if self.ladder.get().is_none() {
            // A concurrent call may have filled the cell meanwhile; each of
            // its cells is keyed on its own inputs.
            let _ = self.ladder.set(Arc::new(LadderField::new(nodes, pairs)));
        }
        self.ladder.get().map(Arc::clone)
    }
}

impl HTree {
    /// Compute the HTree for `tree` under the given structure mode.
    pub fn build(points_tree: &ClusterTree, structure: Structure) -> HTree {
        let n = points_tree.num_nodes();
        let mut near = vec![Vec::new(); n];
        let mut far = vec![Vec::new(); n];

        if n == 1 {
            // A single-leaf tree: the only block is the dense diagonal.
            near[0].push(0);
            return HTree {
                near,
                far,
                structure,
                points: None,
                near_memo: OnceLock::new(),
            };
        }

        // For budget mode, precompute the leaf-to-leaf "near" relation.
        let leaf_near = match structure {
            Structure::Budget { budget } => Some(budget_leaf_near(points_tree, budget)),
            _ => None,
        };

        // Dual traversal starting from the root's self pair.
        let mut stack = vec![(0usize, 0usize)];
        while let Some((a, b)) = stack.pop() {
            let na = &points_tree.nodes[a];
            let nb = &points_tree.nodes[b];
            if a == b {
                if na.is_leaf() {
                    near[a].push(a);
                } else {
                    let (l, r) = na.children.unwrap();
                    stack.push((l, l));
                    stack.push((l, r));
                    stack.push((r, l));
                    stack.push((r, r));
                }
                continue;
            }
            let admissible = match structure {
                Structure::Hss => true,
                Structure::Geometric { tau } => {
                    let dist = points_tree.node_distance(a, b);
                    tau * dist > na.diameter + nb.diameter
                }
                Structure::Budget { .. } => {
                    !has_near_leaf_pair(points_tree, leaf_near.as_ref().unwrap(), a, b)
                }
            };
            if admissible {
                far[a].push(b);
            } else if na.is_leaf() && nb.is_leaf() {
                near[a].push(b);
            } else if na.is_leaf() {
                let (l, r) = nb.children.unwrap();
                stack.push((a, l));
                stack.push((a, r));
            } else if nb.is_leaf() {
                let (l, r) = na.children.unwrap();
                stack.push((l, b));
                stack.push((r, b));
            } else {
                let (al, ar) = na.children.unwrap();
                let (bl, br) = nb.children.unwrap();
                stack.push((al, bl));
                stack.push((al, br));
                stack.push((ar, bl));
                stack.push((ar, br));
            }
        }

        for list in near.iter_mut().chain(far.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }

        HTree {
            near,
            far,
            structure,
            points: None,
            near_memo: OnceLock::new(),
        }
    }

    /// Keep a copy of `points`, the set this tree was built over, for
    /// [`HTree::built_over`] and [`HTree::kept_points`].
    pub fn keep_points(&mut self, points: &PointSet) {
        self.points = Some(Arc::new(Points(points.clone())));
    }

    /// Whether `points` are the points [`HTree::keep_points`] kept, bit for
    /// bit; `None` if it kept none.
    pub fn built_over(&self, points: &PointSet) -> Option<bool> {
        self.points.as_ref().map(|kept| kept.are(points))
    }

    /// The copy [`HTree::keep_points`] kept.  [`HTree::near_blocks`] over
    /// it compares no coordinates: its memo shares the copy and knows it by
    /// address.
    pub fn kept_points(&self) -> Option<&PointSet> {
        self.points.as_ref().map(|kept| &kept.0)
    }

    /// The dense near blocks `((i, j), K(I_i, I_j))` of every pair of
    /// [`HTree::near`], in list order ([`pair_blocks`], `grain` blocks a
    /// task at least).
    ///
    /// They are evaluated once per tree and kernel.  The first call keeps
    /// them with a copy of everything they read — the kernel and the
    /// coordinates by bits (shared with [`HTree::kept_points`] when `points`
    /// is that copy, else a copy of its own), the near lists and the point
    /// indices of every node in a near pair — and a later call whose inputs
    /// all equal that copy gets the same allocation back; `points` equals
    /// it without a compare when it is the copy itself.  Any other call
    /// evaluates afresh and keeps nothing, so no input is ever served
    /// another input's blocks.
    pub fn near_blocks(
        &self,
        points: &PointSet,
        tree: &ClusterTree,
        kernel: &Kernel,
        grain: usize,
    ) -> NearBlocks {
        // Read with `get`, filled with `set` once the blocks exist, never
        // through `get_or_init`: a pool worker waiting inside the evaluation
        // runs other jobs, and one may ask this tree for its blocks.
        let kept = self.near_memo.get();
        if let Some(field) = kept.filter(|f| f.reads(points, tree, kernel, &self.near)) {
            return Arc::clone(&field.blocks);
        }
        let blocks: NearBlocks = Arc::new(NearSet::from(pair_blocks(
            points,
            kernel,
            &self.near,
            grain,
            |i| tree.indices(i),
        )));
        if kept.is_none() {
            let snapshot = match &self.points {
                Some(kept) if std::ptr::eq(&kept.0, points) => Arc::clone(kept),
                _ => Arc::new(Points(points.clone())),
            };
            let field = NearField::new(snapshot, tree, kernel, &self.near, Arc::clone(&blocks));
            // A concurrent first call may have filled the cell meanwhile; its
            // blocks are the same bits, so either may stay.
            let _ = self.near_memo.set(Arc::new(field));
        }
        blocks
    }

    /// The accuracy-dependent work of a compression over `tree`
    /// ([`Ladder::node`], [`Ladder::coupling_blocks`]), on the work earlier
    /// compressions over the same inputs kept.
    ///
    /// The work is kept with the near field ([`HTree::near_blocks`]) and
    /// under its key: the kernel and the coordinates by bits, the near
    /// lists and the index sets of every node in a near pair.  Per node it
    /// holds the pivoted QR of the node's transposed sample block, paused
    /// at the last stop asked for, keyed on the node's candidate rows and
    /// samples (no QR step reads the tolerance or the rank cap, so neither
    /// is in the key); per far pair, the last coupling block, keyed on its
    /// skeletons.  A node whose rows and samples equal the kept ones
    /// resumes the kept QR or reads a looser stop off it; a pair whose
    /// skeletons begin or extend the kept ones grows or cuts the kept
    /// block; anything else is computed afresh and replaces what was
    /// kept.  Every result is the fresh computation's, bit for bit.
    ///
    /// Only a call that finds the near field already kept for its inputs
    /// keeps work: asked for before the near blocks, the first compression
    /// over a tree finds none and keeps and copies nothing, so a one-shot
    /// inspection pays nothing; the second fills the cells, and every later
    /// call goes on from them.  A call over other inputs works afresh and
    /// leaves the kept work alone.
    pub fn ladder<'a>(
        &self,
        points: &'a PointSet,
        tree: &ClusterTree,
        kernel: &'a Kernel,
    ) -> Ladder<'a> {
        let kept = self
            .near_memo
            .get()
            .filter(|f| f.reads(points, tree, kernel, &self.near))
            .and_then(|f| f.ladder_field(tree.num_nodes(), self.num_far()));
        Ladder {
            points,
            kernel,
            kept,
        }
    }

    /// What the kept ladder work did at its last use ([`HTree::ladder`]):
    /// nodes resumed, read and factored fresh, QR steps, coupling entries
    /// evaluated and copied, and the bytes it holds.  All zero before a
    /// second compression over the tree.
    pub fn ladder_counts(&self) -> LadderCounts {
        let ladder = self.near_memo.get().and_then(|f| f.ladder.get());
        ladder.map(|l| l.counts()).unwrap_or_default()
    }

    /// Total number of (directed) near interactions.
    pub fn num_near(&self) -> usize {
        self.near.iter().map(|v| v.len()).sum()
    }

    /// Total number of (directed) far interactions.
    pub fn num_far(&self) -> usize {
        self.far.iter().map(|v| v.len()).sum()
    }

    /// All directed near pairs `(i, j)`.
    pub fn near_pairs(&self) -> Vec<(usize, usize)> {
        self.near
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
            .collect()
    }

    /// All directed far pairs `(i, j)`.
    pub fn far_pairs(&self) -> Vec<(usize, usize)> {
        self.far
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
            .collect()
    }
}

/// Budget-mode near relation between leaves: each leaf marks the
/// `ceil(budget * #leaves)` leaves with the closest centroids (plus itself)
/// as near; the relation is then symmetrized.
fn budget_leaf_near(tree: &ClusterTree, budget: f64) -> Vec<Vec<bool>> {
    let leaves = tree.leaves();
    let nl = leaves.len();
    // leaf position lookup by node id
    let mut pos = vec![usize::MAX; tree.num_nodes()];
    for (p, &l) in leaves.iter().enumerate() {
        pos[l] = p;
    }
    let keep = ((budget * nl as f64).ceil() as usize).min(nl.saturating_sub(1));
    let mut near = vec![vec![false; nl]; nl];
    for (pi, &li) in leaves.iter().enumerate() {
        near[pi][pi] = true;
        if keep == 0 {
            continue;
        }
        let mut dists: Vec<(f64, usize)> = leaves
            .iter()
            .enumerate()
            .filter(|&(pj, _)| pj != pi)
            .map(|(pj, &lj)| (tree.node_distance(li, lj), pj))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(_, pj) in dists.iter().take(keep) {
            near[pi][pj] = true;
            near[pj][pi] = true;
        }
    }
    near
}

/// True when some descendant leaf of `a` is marked near some descendant leaf
/// of `b` in the budget relation.
fn has_near_leaf_pair(tree: &ClusterTree, leaf_near: &[Vec<bool>], a: usize, b: usize) -> bool {
    let leaves = tree.leaves();
    let ra = (tree.nodes[a].start, tree.nodes[a].end);
    let rb = (tree.nodes[b].start, tree.nodes[b].end);
    let under = |range: (usize, usize)| -> Vec<usize> {
        leaves
            .iter()
            .enumerate()
            .filter(|&(_, &l)| tree.nodes[l].start >= range.0 && tree.nodes[l].end <= range.1)
            .map(|(p, _)| p)
            .collect()
    };
    let la = under(ra);
    let lb = under(rb);
    la.iter().any(|&pa| lb.iter().any(|&pb| leaf_near[pa][pb]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctree::{ClusterTree, PartitionMethod};
    use matrox_points::{generate, DatasetId};

    fn build_tree(n: usize, leaf: usize) -> ClusterTree {
        let pts = generate(DatasetId::Grid, n, 1);
        ClusterTree::build(&pts, PartitionMethod::KdTree, leaf, 0)
    }

    fn check_symmetry(h: &HTree) {
        for (i, js) in h.near.iter().enumerate() {
            for &j in js {
                assert!(h.near[j].contains(&i), "near not symmetric: ({i},{j})");
            }
        }
        for (i, js) in h.far.iter().enumerate() {
            for &j in js {
                assert!(h.far[j].contains(&i), "far not symmetric: ({i},{j})");
            }
        }
    }

    /// Every ordered leaf pair must be covered exactly once: either by a near
    /// leaf-leaf interaction or by exactly one far interaction between
    /// ancestors (including the leaves themselves).
    fn check_coverage(tree: &ClusterTree, h: &HTree) {
        let leaves = tree.leaves();
        let ancestors = |mut x: usize| -> Vec<usize> {
            let mut v = vec![x];
            while let Some(p) = tree.nodes[x].parent {
                v.push(p);
                x = p;
            }
            v
        };
        for &la in &leaves {
            for &lb in &leaves {
                let mut count = 0;
                if h.near[la].contains(&lb) {
                    count += 1;
                }
                for &aa in &ancestors(la) {
                    for &ab in &ancestors(lb) {
                        if h.far[aa].contains(&ab) {
                            count += 1;
                        }
                    }
                }
                assert_eq!(
                    count, 1,
                    "leaf pair ({la},{lb}) covered {count} times instead of once"
                );
            }
        }
    }

    #[test]
    fn hss_structure_has_sibling_far_and_diagonal_near() {
        let tree = build_tree(256, 16);
        let h = HTree::build(&tree, Structure::Hss);
        // Near interactions are exactly the leaf diagonal.
        for (i, js) in h.near.iter().enumerate() {
            if tree.nodes[i].is_leaf() {
                assert_eq!(js, &vec![i]);
            } else {
                assert!(js.is_empty());
            }
        }
        // Every non-root node is far from exactly its sibling.
        for node in &tree.nodes {
            if let Some(p) = node.parent {
                let (l, r) = tree.nodes[p].children.unwrap();
                let sib = if node.id == l { r } else { l };
                assert_eq!(h.far[node.id], vec![sib]);
            }
        }
        check_symmetry(&h);
        check_coverage(&tree, &h);
    }

    #[test]
    fn geometric_structure_covers_all_pairs_once() {
        let tree = build_tree(256, 16);
        let h = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        check_symmetry(&h);
        check_coverage(&tree, &h);
        assert!(h.num_near() > 0);
        assert!(h.num_far() > 0);
    }

    #[test]
    fn budget_structure_covers_all_pairs_once() {
        let pts = generate(DatasetId::Higgs, 512, 3);
        let tree = ClusterTree::build(&pts, PartitionMethod::TwoMeans, 32, 0);
        let h = HTree::build(&tree, Structure::h2b());
        check_symmetry(&h);
        check_coverage(&tree, &h);
    }

    #[test]
    fn budget_zero_equals_hss_near_count() {
        let tree = build_tree(256, 16);
        let h_b0 = HTree::build(&tree, Structure::Budget { budget: 0.0 });
        let h_hss = HTree::build(&tree, Structure::Hss);
        assert_eq!(h_b0.num_near(), h_hss.num_near());
    }

    #[test]
    fn larger_budget_gives_more_near_interactions() {
        let tree = build_tree(512, 16);
        let small = HTree::build(&tree, Structure::Budget { budget: 0.03 });
        let large = HTree::build(&tree, Structure::Budget { budget: 0.25 });
        assert!(large.num_near() >= small.num_near());
    }

    #[test]
    fn looser_tau_gives_more_far_interactions() {
        let tree = build_tree(512, 16);
        // Larger tau admits pairs more easily -> more far blocks at higher
        // levels and fewer near blocks.
        let tight = HTree::build(&tree, Structure::Geometric { tau: 0.5 });
        let loose = HTree::build(&tree, Structure::Geometric { tau: 3.0 });
        assert!(loose.num_near() <= tight.num_near());
        check_coverage(&build_tree(512, 16), &tight);
    }

    #[test]
    fn single_leaf_tree_has_one_near_block() {
        let pts = generate(DatasetId::Random, 8, 5);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let h = HTree::build(&tree, Structure::Hss);
        assert_eq!(h.num_near(), 1);
        assert_eq!(h.num_far(), 0);
    }

    #[test]
    fn far_interactions_connect_same_level_nodes() {
        let tree = build_tree(256, 16);
        for s in [
            Structure::Hss,
            Structure::Geometric { tau: 0.65 },
            Structure::h2b(),
        ] {
            let h = HTree::build(&tree, s);
            for (i, js) in h.far.iter().enumerate() {
                for &j in js {
                    assert_eq!(
                        tree.nodes[i].level, tree.nodes[j].level,
                        "far pair ({i},{j}) spans levels in {:?}",
                        s
                    );
                }
            }
        }
    }
}
