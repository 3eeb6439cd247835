//! Merkle trees over matrices of field elements.
//!
//! STARK commitments hash each *row* of an evaluation matrix (all columns
//! at one domain point) into a leaf, then build a binary tree of
//! [`compress`] nodes. Opening a row reveals the row plus its
//! authentication path.

use unintt_ff::Goldilocks;

use crate::hash::{compress, hash_elements, Digest};

/// A Merkle tree committed over the rows of a matrix.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// Number of leaves (power of two).
    leaves: usize,
    /// Heap layout: `nodes[1]` is the root, `nodes[2i]`/`nodes[2i+1]` are
    /// the children of `i`; leaf `j` sits at `nodes[leaves + j]`.
    nodes: Vec<Digest>,
}

/// An opening: the row values plus the authentication path to the root.
#[derive(Clone, Debug, PartialEq)]
pub struct MerklePath {
    /// Index of the opened leaf.
    pub index: usize,
    /// The opened row.
    pub row: Vec<Goldilocks>,
    /// Sibling digests, leaf level first.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Commits to `rows` (one leaf per row).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or its length is not a power of two.
    pub fn commit(rows: &[Vec<Goldilocks>]) -> Self {
        let leaves = rows.len();
        assert!(
            leaves.is_power_of_two() && leaves > 0,
            "leaf count must be a power of two"
        );
        let mut nodes = vec![Digest::zero(); 2 * leaves];
        for (j, row) in rows.iter().enumerate() {
            nodes[leaves + j] = hash_elements(row);
        }
        for i in (1..leaves).rev() {
            nodes[i] = compress(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        Self { leaves, nodes }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// Always false (the constructor rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Opens leaf `index` of the committed matrix `rows`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or `rows` disagrees with the
    /// committed shape.
    pub fn open(&self, rows: &[Vec<Goldilocks>], index: usize) -> MerklePath {
        assert!(index < self.leaves, "leaf index out of range");
        assert_eq!(rows.len(), self.leaves, "matrix does not match the tree");
        let mut siblings = Vec::new();
        let mut pos = self.leaves + index;
        while pos > 1 {
            siblings.push(self.nodes[pos ^ 1]);
            pos /= 2;
        }
        MerklePath {
            index,
            row: rows[index].clone(),
            siblings,
        }
    }
}

impl MerklePath {
    /// Verifies the path against a root.
    pub fn verify(&self, root: &Digest) -> bool {
        let mut digest = hash_elements(&self.row);
        let mut pos = self.index;
        for sibling in &self.siblings {
            digest = if pos.is_multiple_of(2) {
                compress(&digest, sibling)
            } else {
                compress(sibling, &digest)
            };
            pos /= 2;
        }
        digest == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| (0..cols).map(|_| Goldilocks::random(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn open_verify_all_leaves() {
        let rows = random_matrix(16, 3, 1);
        let tree = MerkleTree::commit(&rows);
        for i in 0..16 {
            let path = tree.open(&rows, i);
            assert!(path.verify(&tree.root()), "leaf {i}");
            assert_eq!(path.row, rows[i]);
            assert_eq!(path.siblings.len(), 4);
        }
    }

    #[test]
    fn tampered_row_rejected() {
        let rows = random_matrix(8, 2, 2);
        let tree = MerkleTree::commit(&rows);
        let mut path = tree.open(&rows, 3);
        path.row[0] += Goldilocks::ONE;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn wrong_index_rejected() {
        let rows = random_matrix(8, 2, 3);
        let tree = MerkleTree::commit(&rows);
        let mut path = tree.open(&rows, 3);
        path.index = 4;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn different_matrices_different_roots() {
        let a = random_matrix(8, 2, 4);
        let mut b = a.clone();
        b[5][1] += Goldilocks::ONE;
        assert_ne!(MerkleTree::commit(&a).root(), MerkleTree::commit(&b).root());
    }

    #[test]
    fn single_leaf_tree() {
        let rows = random_matrix(1, 4, 5);
        let tree = MerkleTree::commit(&rows);
        let path = tree.open(&rows, 0);
        assert!(path.siblings.is_empty());
        assert!(path.verify(&tree.root()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let rows = random_matrix(6, 1, 6);
        let _ = MerkleTree::commit(&rows);
    }
}
