//! Memory-mapped binary CSR graphs.
//!
//! [`MmapCsrGraph`] opens a file in the [`format`](super::format) described
//! layout and lends its two sections as a [`GraphRef`] — the same view a
//! heap [`CsrGraph`] lends — straight out of the mapping: the offsets
//! section is reinterpreted as `&[u32]` or `&[u64]` and the adjacency
//! section as `&[u32]` (the format guarantees the adjacency is 4-aligned
//! relative to the file start, and the kernel guarantees page-aligned
//! mappings). Nothing is materialised on the heap, so opening a
//! multi-gigabyte graph costs a header parse plus an `O(V)` structural
//! validation pass over the offsets — the adjacency pages fault in lazily
//! as extraction touches them.
//!
//! Three cases pay a copy; the view is identical either way:
//! * the mmap shim falls back to a heap read that happens to be misaligned —
//!   the file is copied into an 8-aligned buffer;
//! * the offsets payload sits at a position that is not a multiple of its
//!   entry width (v2 allows it; the writers never emit it) — that section
//!   alone is copied into an aligned vector;
//! * big-endian hosts — the file is copied and both sections are swapped to
//!   native order.

use super::format::{Header, SectionLayout};
use crate::graphref::Derived;
use crate::layout::{narrow_index, OffsetBuf, Offsets, OffsetsWidth};
use crate::{CsrGraph, GraphError, GraphRef, VertexId};
use memmap2::Mmap;
use std::fs::File;
use std::path::Path;

/// Owned, 8-aligned byte buffer used when the raw mapping cannot be used
/// directly (misaligned heap fallback, or a big-endian host that needs the
/// sections byte-swapped).
#[derive(Debug)]
struct AlignedBytes {
    buf: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn from_slice(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: u64 -> u8 reinterpretation of an initialised buffer with
        // capacity >= bytes.len(); u8 has no alignment or validity needs.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, bytes.len()) };
        dst.copy_from_slice(bytes);
        AlignedBytes {
            buf,
            len: bytes.len(),
        }
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        // SAFETY: same reinterpretation as in `from_slice`.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, self.len) }
    }
}

#[derive(Debug)]
enum Backing {
    Mapped(Mmap),
    Owned(AlignedBytes),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(map) => map,
            Backing::Owned(buf) => buf.as_bytes(),
        }
    }
}

/// Integer types a section may be reinterpreted as: every bit pattern is a
/// valid value.
trait SectionEntry: Copy {}
impl SectionEntry for u32 {}
impl SectionEntry for u64 {}

/// Reinterprets a native-order section as a typed slice.
///
/// # Panics
/// If `bytes` is not aligned for `T` — [`MmapCsrGraph::from_file`] makes
/// sure every section it casts is.
#[inline]
fn typed<T: SectionEntry>(bytes: &[u8]) -> &[T] {
    assert!((bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()));
    // SAFETY: the pointer is aligned for `T` (asserted above), the length
    // is rounded down to whole entries inside `bytes`, and `T` is a plain
    // integer for which every bit pattern is valid.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr() as *const T,
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

/// A read-only CSR graph served directly from a binary graph file.
///
/// Every read goes through [`MmapCsrGraph::view`], the same [`GraphRef`] a
/// heap [`CsrGraph`] lends, so every extractor runs on it unchanged. The
/// canonical edge count is `O(1)` — it is stored in the file header rather
/// than recomputed.
#[derive(Debug)]
pub struct MmapCsrGraph {
    backing: Backing,
    header: Header,
    layout: SectionLayout,
    /// Native-order copy of the offsets section, made at open only when the
    /// section is not aligned to its entry width in memory.
    offsets_copy: Option<OffsetBuf>,
    /// Canonical edge count and checksum, filled from the header at open.
    derived: Derived,
}

impl MmapCsrGraph {
    /// Opens a binary CSR graph file as a memory-mapped graph.
    ///
    /// Performs the cheap structural validation described in the
    /// [format docs](super::format): header sanity, file length, and an
    /// `O(V)` monotonicity check of the offsets section. The full data
    /// checksum is *not* verified here (it would fault in every page);
    /// call [`MmapCsrGraph::verify_checksum`] when integrity matters more
    /// than load time.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let file = File::open(path)?;
        Self::from_file(&file)
    }

    /// Opens an already-open file as a memory-mapped graph. See
    /// [`MmapCsrGraph::open`].
    pub fn from_file(file: &File) -> Result<Self, GraphError> {
        // All byte accesses made through this type are bounds-checked
        // against the mapping length captured here, and the parsed
        // contents are treated as untrusted input.
        // SAFETY: the standard mmap caveat — the caller must not truncate
        // the file while the map is alive.
        let map = unsafe { Mmap::map(file) }?;
        let backing = Self::normalize(map)?;
        let header = Header::parse(backing.bytes())?;
        let layout = SectionLayout::locate(&header, backing.bytes())?;
        let offsets = &backing.bytes()[layout.offsets_pos..][..header.offsets_len()];
        let offsets_copy = (!(offsets.as_ptr() as usize).is_multiple_of(header.width.bytes()))
            .then(|| match header.width {
                OffsetsWidth::U32 => OffsetBuf::U32(
                    offsets
                        .chunks_exact(4)
                        .map(|c| u32::from_ne_bytes(c.try_into().unwrap()))
                        .collect(),
                ),
                OffsetsWidth::U64 => OffsetBuf::wide(
                    offsets
                        .chunks_exact(8)
                        .map(|c| u64::from_ne_bytes(c.try_into().unwrap())),
                ),
            });
        let derived = Derived {
            canonical_edges: (header.num_canonical_edges as usize).into(),
            checksum: header.checksum.into(),
        };
        let graph = MmapCsrGraph {
            backing,
            header,
            layout,
            offsets_copy,
            derived,
        };
        graph.validate_offsets()?;
        Ok(graph)
    }

    /// Turns the raw mapping into a backing whose sections can be
    /// reinterpreted as native-endian typed slices in place.
    fn normalize(map: Mmap) -> Result<Backing, GraphError> {
        #[cfg(target_endian = "little")]
        {
            // The adjacency sits at a 4-aligned file offset, so 4-alignment
            // of the base pointer is all its cast needs. Kernel mappings are
            // page-aligned; only the shim's heap fallback can ever be
            // misaligned, and then we pay one copy.
            if (map.as_ptr() as usize).is_multiple_of(4) {
                Ok(Backing::Mapped(map))
            } else {
                Ok(Backing::Owned(AlignedBytes::from_slice(&map)))
            }
        }
        #[cfg(target_endian = "big")]
        {
            // The file stores little-endian sections; swap both into native
            // order once so the view stays cast-based.
            let header = Header::parse(&map)?;
            let layout = SectionLayout::locate(&header, &map)?;
            let mut owned = AlignedBytes::from_slice(&map);
            let len = owned.len;
            // u64 -> u8 reinterpretation of `owned`'s initialised buffer,
            // same as `as_bytes`, but mutable.
            // SAFETY: `owned` is uniquely held, so nothing aliases it.
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(owned.buf.as_mut_ptr() as *mut u8, len) };
            for (pos, section_len, entry) in [
                (
                    layout.offsets_pos,
                    header.offsets_len(),
                    header.width.bytes(),
                ),
                (layout.adjacency_pos, header.adjacency_len(), 4),
            ] {
                for chunk in bytes[pos..pos + section_len].chunks_exact_mut(entry) {
                    chunk.reverse();
                }
            }
            Ok(Backing::Owned(owned))
        }
    }

    fn validate_offsets(&self) -> Result<(), GraphError> {
        let view = self.view();
        let n = view.num_vertices();
        if view.adjacency_start(0) != 0 {
            return Err(GraphError::Format(
                "offsets section must start at 0".to_string(),
            ));
        }
        if view.adjacency_start(n) != view.num_directed_edges() {
            return Err(GraphError::Format(format!(
                "last offset {} does not match the directed edge count {}",
                view.adjacency_start(n),
                view.num_directed_edges()
            )));
        }
        let mut prev = 0usize;
        for i in 1..=n {
            let cur = view.adjacency_start(i);
            if cur < prev {
                return Err(GraphError::Format(format!(
                    "offsets must be non-decreasing (offset {i} is {cur}, previous {prev})"
                )));
            }
            prev = cur;
        }
        Ok(())
    }

    /// The parsed file header.
    #[inline]
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The borrowed view every read goes through.
    #[inline]
    pub fn view(&self) -> GraphRef<'_> {
        let bytes = self.backing.bytes();
        let offsets = match &self.offsets_copy {
            Some(copy) => copy.view(),
            None => {
                let section = &bytes[self.layout.offsets_pos..][..self.header.offsets_len()];
                match self.header.width {
                    OffsetsWidth::U32 => Offsets::U32(typed(section)),
                    OffsetsWidth::U64 => Offsets::U64(typed(section)),
                }
            }
        };
        let adjacency = typed(&bytes[self.layout.adjacency_pos..][..self.header.adjacency_len()]);
        GraphRef::new(offsets, adjacency, self.header.sorted, &self.derived)
    }

    /// Materialises the graph as a heap [`CsrGraph`] (copying both
    /// sections out of the mapping). Used when a consumer genuinely needs
    /// an owned graph — e.g. re-sorting adjacency for the Opt variant.
    pub fn to_csr_graph(&self) -> CsrGraph {
        self.view().to_csr_graph()
    }

    /// Validates the data sections in one walk over the neighbor lists, in
    /// increasing vertex order:
    ///
    /// * recomputes the FNV-1a checksum over the offsets and adjacency
    ///   sections and compares it against the header; a mismatch is
    ///   reported before any other fault;
    /// * rejects what the checksum cannot: a checksum only proves the bytes
    ///   are the ones the writer hashed. Every extractor assumes a simple
    ///   undirected graph with in-range ids, so the walk rejects
    ///   * any neighbor id `>= num_vertices` with
    ///     [`GraphError::VertexOutOfRange`] (it would index past every
    ///     per-vertex array downstream);
    ///   * `v ∈ N(v)` with [`GraphError::SelfLoop`];
    ///   * a neighbor listed twice with [`GraphError::DuplicateNeighbor`];
    ///   * if the header claims sorted adjacency
    ///     ([`FLAG_SORTED`](super::format::FLAG_SORTED)), a list that is
    ///     not ascending with [`GraphError::SortedFlagViolation`] (a wrong
    ///     claim silently breaks every binary-search lookup), and a `u`
    ///     listing `v` without `v` listing `u` with
    ///     [`GraphError::AsymmetricAdjacency`].
    ///
    /// Symmetry is checked for sorted files only. Lists are visited in
    /// increasing `u`, so in a symmetric sorted file, whenever `u` lists a
    /// `v < u`, `u` is the next entry above `v` in `N(v)` not yet named
    /// back: one cursor per vertex checks it in `O(V + E)`, and a final
    /// pass checks that every cursor reached the end of its list. Each
    /// check reads a list the walk has just passed, which is still in
    /// cache. An unsorted file would need a search or a sort per entry, so
    /// its symmetry stays unchecked.
    ///
    /// `O(file size)`; faults in every page. The walk allocates one `u32`
    /// per vertex.
    pub fn verify_checksum(&self) -> Result<(), GraphError> {
        let view = self.view();
        let mut hasher = super::format::hash_offsets(view);
        let walked = check_adjacency(view, &mut hasher);
        // The walk stops at the first fault, so then hash the rest afresh.
        let computed = match walked {
            Ok(()) => hasher.finish(),
            Err(_) => super::format::checksum_sections(view),
        };
        if computed != self.header.checksum {
            return Err(GraphError::Format(format!(
                "checksum mismatch: header says {:#018x}, data hashes to {computed:#018x}",
                self.header.checksum
            )));
        }
        walked
    }
}

/// The adjacency walk of [`MmapCsrGraph::verify_checksum`]: feeds each id
/// to `hasher`, then checks it, and returns the first fault it meets.
fn check_adjacency(
    view: GraphRef<'_>,
    hasher: &mut super::format::Fnv1a,
) -> Result<(), GraphError> {
    let n = view.num_vertices();
    let sorted = view.is_sorted();
    let asymmetric = |vertex: VertexId, neighbor: VertexId| GraphError::AsymmetricAdjacency {
        vertex: vertex as u64,
        neighbor: neighbor as u64,
    };
    // Sorted: each list's cursor, on its first entry above its own vertex
    // not yet matched from the other side. Unsorted: one more than the
    // last vertex whose list named this id.
    let mut seen = vec![0u32; n];
    for u in 0..n as VertexId {
        let list = view.neighbors(u);
        if sorted {
            // At most `u` distinct ids lie below `u`; a longer prefix has a
            // duplicate, which this list's own walk rejects before any
            // cursor is read.
            seen[u as usize] = narrow_index(list.partition_point(|&w| w < u));
        }
        for (i, &w) in list.iter().enumerate() {
            hasher.update(&w.to_le_bytes());
            if w as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w as u64,
                    num_vertices: n as u64,
                });
            }
            if w == u {
                return Err(GraphError::SelfLoop { vertex: u as u64 });
            }
            let duplicate = GraphError::DuplicateNeighbor {
                vertex: u as u64,
                neighbor: w as u64,
            };
            let seen = &mut seen[w as usize];
            if !sorted {
                // `num_vertices < u32::MAX` (format invariant), so `u + 1`
                // cannot overflow.
                if *seen == u + 1 {
                    return Err(duplicate);
                }
                *seen = u + 1;
                continue;
            }
            if i > 0 && w <= list[i - 1] {
                return Err(if w == list[i - 1] {
                    duplicate
                } else {
                    GraphError::SortedFlagViolation {
                        vertex: u as u64,
                        position: i,
                    }
                });
            }
            if w > u {
                continue;
            }
            // `w`'s list is finished and every vertex below `u` has
            // matched its entry there, so the cursor must sit on `u`.
            match view.neighbors(w).get(*seen as usize) {
                Some(&x) if x == u => *seen += 1,
                // `x`'s list is finished too, without naming `w`.
                Some(&x) if x < u => return Err(asymmetric(w, x)),
                _ => return Err(asymmetric(u, w)),
            }
        }
    }
    if sorted {
        // An entry still under a cursor was never named back.
        for w in 0..n as VertexId {
            if let Some(&x) = view.neighbors(w).get(seen[w as usize] as usize) {
                return Err(asymmetric(w, x));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::format::{
        content_hash, write_binary, write_binary_file, Fnv1a, FORMAT_VERSION_V1, HEADER_LEN,
        SECTION_ADJACENCY, SECTION_ENTRY_LEN, SECTION_OFFSETS,
    };
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("chordal_mmap_{}_{name}.bin", std::process::id()))
    }

    fn sample() -> CsrGraph {
        CsrGraph::from_canonical_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)])
    }

    /// Byte position of the offsets payload in a freshly written file.
    fn offsets_pos(bytes: &[u8]) -> usize {
        let header = Header::parse(bytes).unwrap();
        SectionLayout::locate(&header, bytes).unwrap().offsets_pos
    }

    #[test]
    fn misaligned_offsets_section_is_copied_and_reads_identically() {
        let g = sample();
        let mut v2 = Vec::new();
        write_binary(&g, &mut v2).unwrap();
        let header = Header::parse(&v2).unwrap();
        let at = offsets_pos(&v2);
        let offsets = &v2[at..at + header.offsets_len()];
        let adjacency = &v2[at + header.offsets_len()..];
        // Re-lay the file with two 2-byte unknown sections: the first pushes
        // the offsets payload off 4-alignment, the second restores it for the
        // adjacency payload.
        let table_end = HEADER_LEN + 8 + 4 * SECTION_ENTRY_LEN;
        let offsets_at = table_end + 2;
        let pad_at = offsets_at + offsets.len();
        let adjacency_at = pad_at + 2;
        assert!(!offsets_at.is_multiple_of(4) && adjacency_at.is_multiple_of(4));
        let mut file = v2[..HEADER_LEN].to_vec();
        file.extend_from_slice(&4u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        for (id, pos, len) in [
            (0xa, table_end, 2),
            (SECTION_OFFSETS, offsets_at, offsets.len()),
            (0xb, pad_at, 2),
            (SECTION_ADJACENCY, adjacency_at, adjacency.len()),
        ] {
            for field in [id, pos as u64, len as u64] {
                file.extend_from_slice(&field.to_le_bytes());
            }
        }
        file.extend_from_slice(&[0xaa; 2]);
        file.extend_from_slice(offsets);
        file.extend_from_slice(&[0xbb; 2]);
        file.extend_from_slice(adjacency);
        let path = temp_path("misaligned");
        std::fs::write(&path, &file).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert!(
            m.offsets_copy.is_some(),
            "misaligned offsets must be copied"
        );
        m.verify_checksum().unwrap();
        assert_eq!(m.to_csr_graph(), g);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(m.view().neighbors(v), g.neighbors(v));
        }
        assert_eq!(content_hash(&m), content_hash(&g));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let g = sample();
        let path = temp_path("trunc");
        write_binary_file(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert!(MmapCsrGraph::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_checksum_catches_corruption() {
        let g = sample();
        let path = temp_path("corrupt");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        // Structural validation alone does not touch the adjacency…
        let m = MmapCsrGraph::open(&path).unwrap();
        // …but the full checksum pass does.
        assert!(m.verify_checksum().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_nonmonotone_offsets() {
        let g = sample();
        let path = temp_path("monotone");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the second offset entry to be larger than the third.
        let at = offsets_pos(&bytes) + 4;
        bytes[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapCsrGraph::open(&path).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_graph_maps() {
        let g = CsrGraph::empty(4);
        let path = temp_path("empty");
        write_binary_file(&g, &path).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.view().num_vertices(), 4);
        assert_eq!(m.view().num_edges(), 0);
        assert_eq!(m.view().neighbors(2), &[] as &[VertexId]);
        assert_eq!(m.to_csr_graph(), g);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsorted_graph_preserves_adjacency_order() {
        let g = sample().with_scrambled_adjacency(5);
        let path = temp_path("unsorted");
        write_binary_file(&g, &path).unwrap();
        let mapped = MmapCsrGraph::open(&path).unwrap();
        let m = mapped.view();
        assert!(!m.is_sorted());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(m.neighbors(v), g.neighbors(v));
        }
        assert!(m.has_edge(0, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_v1_file_maps_and_verifies() {
        let g = sample();
        let path = temp_path("v1compat");
        write_binary_file(&g, &path).unwrap();
        // Re-encode the written v2 file as its v1 equivalent: version 1
        // stamped, section table cut out, payloads right after the header.
        let v2 = std::fs::read(&path).unwrap();
        let payload = offsets_pos(&v2);
        let mut v1 = Vec::with_capacity(HEADER_LEN + (v2.len() - payload));
        v1.extend_from_slice(&v2[..HEADER_LEN]);
        v1[8..12].copy_from_slice(&FORMAT_VERSION_V1.to_le_bytes());
        v1.extend_from_slice(&v2[payload..]);
        std::fs::write(&path, &v1).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.header().version, FORMAT_VERSION_V1);
        assert_eq!(m.to_csr_graph(), g);
        // The checksum covers only payload bytes, so it still verifies —
        // and the content hash (serve cache key) is unchanged.
        m.verify_checksum().unwrap();
        assert_eq!(
            super::super::format::content_hash_from_header(m.header()),
            super::super::format::content_hash(&g),
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_checksum_rejects_lying_sorted_flag() {
        // An unsorted graph whose header is doctored to claim FLAG_SORTED:
        // the checksum still matches (it does not cover the header), so
        // only the sortedness walk can catch the lie.
        let g = sample().with_scrambled_adjacency(5);
        assert!(!g.is_sorted());
        let path = temp_path("lying_flag");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(flags | 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert!(m.view().is_sorted(), "doctored header should claim sorted");
        let err = m.verify_checksum().unwrap_err();
        assert!(
            matches!(err, GraphError::SortedFlagViolation { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Writes `g`, lets `edit` rewrite its flat adjacency array, and
    /// re-stamps the checksum, so only the adjacency walk can object.
    fn doctored(
        g: &CsrGraph,
        name: &str,
        edit: impl FnOnce(&mut [VertexId]),
    ) -> std::path::PathBuf {
        let mut bytes = Vec::new();
        write_binary(g, &mut bytes).unwrap();
        let header = Header::parse(&bytes).unwrap();
        let layout = SectionLayout::locate(&header, &bytes).unwrap();
        let adjacency = layout.adjacency_pos..layout.adjacency_pos + header.adjacency_len();
        let mut ids: Vec<VertexId> = bytes[adjacency.clone()]
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes(c.try_into().unwrap()))
            .collect();
        edit(&mut ids);
        let encoded: Vec<u8> = ids.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes[adjacency.clone()].copy_from_slice(&encoded);
        let mut hasher = Fnv1a::new();
        hasher.update(&bytes[layout.offsets_pos..layout.offsets_pos + header.offsets_len()]);
        hasher.update(&bytes[adjacency]);
        bytes[40..48].copy_from_slice(&hasher.finish().to_le_bytes());
        let path = temp_path(name);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    fn verify(path: &std::path::Path) -> Result<(), GraphError> {
        let result = MmapCsrGraph::open(path).unwrap().verify_checksum();
        let _ = std::fs::remove_file(path);
        result
    }

    #[test]
    fn verify_checksum_rejects_self_loops_duplicates_and_asymmetry() {
        // Sorted sample adjacency, flat: N(0)=[1,2,5] at 0..3, N(1)=[0,2] at
        // 3..5, N(2)=[0,1,3] at 5..8, N(3)=[2,4] at 8..10, N(4)=[3] at 10,
        // N(5)=[0] at 11.
        let g = sample();
        assert!(g.is_sorted());
        // N(4)=[4]: the walk meets the self-loop before it could miss 3's
        // entry 4.
        let err = verify(&doctored(&g, "self_loop", |adj| adj[10] = 4)).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { vertex: 4 }), "{err:?}");
        let err = verify(&doctored(&g, "duplicate", |adj| adj[2] = 2)).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::DuplicateNeighbor {
                    vertex: 0,
                    neighbor: 2
                }
            ),
            "{err:?}"
        );
        // Each asymmetric copy stays sorted and simple. The walk checks an
        // entry `w < u` of `N(u)` against `w`'s cursor, then every cursor
        // left on an entry at the end.
        for (name, edit, vertex, neighbor) in [
            // N(5)=[1]: 1's list is used up before 5 comes.
            ("asym_missing", &[(11, 1)][..], 5, 1),
            // N(2)=[1,3,4]: 0's cursor still sits on 2 when 5 comes.
            ("asym_skipped", &[(5, 1), (6, 3), (7, 4)][..], 0, 2),
            // N(4)=[5]: nobody after 4 names 3, whose cursor stays on 4.
            ("asym_unmatched", &[(10, 5)][..], 3, 4),
        ] {
            let path = doctored(&g, name, |adj| {
                for &(slot, id) in edit {
                    adj[slot] = id;
                }
            });
            let err = verify(&path).unwrap_err();
            assert!(
                matches!(err, GraphError::AsymmetricAdjacency { vertex: v, neighbor: x }
                    if v == vertex && x == neighbor),
                "{name}: {err:?}"
            );
        }
        // N(1)=[2,0] under a sorted flag.
        let err = verify(&doctored(&g, "late_unsorted", |adj| adj[3..5].swap(0, 1))).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::SortedFlagViolation {
                    vertex: 1,
                    position: 1
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unsorted_files_are_checked_for_everything_but_symmetry() {
        let g = sample().with_scrambled_adjacency(5);
        assert!(!g.is_sorted());
        let first = g.neighbors(0)[0];
        let err = verify(&doctored(&g, "unsorted_self_loop", |adj| adj[0] = 0)).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { vertex: 0 }), "{err:?}");
        let err = verify(&doctored(&g, "unsorted_duplicate", |adj| adj[1] = adj[0])).unwrap_err();
        assert!(
            matches!(err, GraphError::DuplicateNeighbor { vertex: 0, neighbor } if neighbor == first as u64),
            "{err:?}"
        );
        // 5 lists 1 instead of 0: symmetry is not checked without the sorted
        // flag, so the file verifies.
        let last = g.num_directed_edges() - 1;
        assert_eq!(g.neighbors(5), &[0]);
        verify(&doctored(&g, "unsorted_asymmetric", |adj| adj[last] = 1)).unwrap();
        // The untouched file verifies too.
        verify(&doctored(&g, "unsorted_intact", |_| {})).unwrap();
    }
}
