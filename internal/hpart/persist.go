package hpart

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ping/internal/columnar"
	"ping/internal/dfs"
	"ping/internal/rdf"
)

// Storage paths within the layout's file system. Sub-partitions live under
// levels/, indexes under indexes/, and meta.pcol ties everything together.
const (
	vpPath   = "indexes/vp.pcol"
	siPath   = "indexes/si.pcol"
	oiPath   = "indexes/oi.pcol"
	metaPath = "meta.pcol"
	dictPath = "dict.txt"
	// dictSegDir holds the dictionary segments SaveDict appends after
	// the base dict.txt, one per save that interned terms, each named by
	// its ID range [first, end).
	dictSegDir = "dictseg/"
	dictSegFmt = dictSegDir + "%010d-%010d.txt"
)

func splitSet(s LevelSet) (lo, hi uint32) {
	return uint32(s), uint32(uint64(s) >> 32)
}

func joinSet(lo, hi uint32) LevelSet {
	return LevelSet(uint64(lo) | uint64(hi)<<32)
}

// writeIndexes persists VP, SI, OI and the layout metadata. Indexes are
// stored as columnar files (IDs plus level bitmasks), the same storage
// substrate as the data, matching the paper's "indexes are stored in HDFS
// and loaded into Spark memory at query-processor startup" (§3.7). Every
// map is written in sorted key order, so the same layout always yields
// the same bytes.
func (l *Layout) writeIndexes() error {
	write := func(path string, cols [][]uint32) error {
		w, err := l.fs.Create(path)
		if err != nil {
			return fmt.Errorf("hpart: %w", err)
		}
		_, err = columnar.WriteColumns(w, cols, columnar.Auto)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("hpart: write %s: %w", path, err)
		}
		return nil
	}

	// VP: property → level set.
	vp := make([][]uint32, 3)
	for _, p := range sortedKeys(l.VP) {
		lo, hi := splitSet(l.VP[p])
		vp[0] = append(vp[0], p)
		vp[1] = append(vp[1], lo)
		vp[2] = append(vp[2], hi)
	}
	if err := write(vpPath, vp); err != nil {
		return err
	}

	// SI: subject → level.
	si := make([][]uint32, 2)
	for _, s := range sortedKeys(l.SI) {
		si[0] = append(si[0], s)
		si[1] = append(si[1], uint32(l.SI[s]))
	}
	if err := write(siPath, si); err != nil {
		return err
	}

	// OI: object → level set.
	oi := make([][]uint32, 3)
	for _, o := range sortedKeys(l.OI) {
		lo, hi := splitSet(l.OI[o])
		oi[0] = append(oi[0], o)
		oi[1] = append(oi[1], lo)
		oi[2] = append(oi[2], hi)
	}
	if err := write(oiPath, oi); err != nil {
		return err
	}

	// Meta: hierarchy depth, per-level triple counts (split 64-bit), the
	// sub-partition inventory with row counts and file generations
	// (column 6; layouts written before epoch support omit it and load
	// as all-zero generations), and the advisor's level remap as
	// (logical, physical) pairs (columns 7-8; absent on layouts written
	// before level merging, which load with an identity map).
	cols := 7
	if len(l.LevelMap) > 0 {
		cols = 9
	}
	meta := make([][]uint32, cols)
	meta[0] = []uint32{uint32(l.NumLevels)}
	for _, n := range l.LevelTriples {
		meta[1] = append(meta[1], uint32(uint64(n)&0xffffffff))
		meta[2] = append(meta[2], uint32(uint64(n)>>32))
	}
	for _, key := range sortedSubParts(l.SubPartRows) {
		meta[3] = append(meta[3], uint32(key.Level))
		meta[4] = append(meta[4], key.Prop)
		meta[5] = append(meta[5], uint32(l.SubPartRows[key]))
		meta[6] = append(meta[6], uint32(l.gen[key]))
	}
	if cols == 9 {
		for _, logical := range sortedKeys(l.LevelMap) {
			meta[7] = append(meta[7], uint32(logical))
			meta[8] = append(meta[8], uint32(l.LevelMap[logical]))
		}
	}
	return write(metaPath, meta)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedSubParts returns m's sub-partition keys in (level, prop) order.
func sortedSubParts[V any](m map[SubPartKey]V) []SubPartKey {
	keys := make([]SubPartKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b SubPartKey) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Prop, b.Prop))
	})
	return keys
}

// dictFiles records how much of the shared dictionary is on storage, as
// the base dict.txt plus segments. Every epoch of a store shares it.
type dictFiles struct {
	mu sync.Mutex
	// based is set once a base this store wrote or loaded is on storage.
	based bool
	// persisted is the number of terms in the base and its segments.
	persisted int
	// baseBytes and segBytes size the base and the segments, which are
	// folded into a new base once they reach its size.
	baseBytes, segBytes int64
}

// SaveDict persists the term dictionary alongside the partitions so a
// layout directory is self-contained (used by the CLI tools). The first
// save of a store writes the whole dictionary as dict.txt; a later save
// writes only the terms interned since the previous one, as one segment
// file, and nothing when no term is new. Once the segments' bytes reach
// the base's, the save folds them into a new base instead, which keeps
// the cost amortized O(1) per term.
func (l *Layout) SaveDict() error {
	df := l.dictFiles
	df.mu.Lock()
	defer df.mu.Unlock()
	n := l.Dict.Len()
	if df.based && n == df.persisted {
		return nil
	}
	var seg bytes.Buffer
	if df.based {
		if _, err := l.Dict.WriteSegment(&seg, df.persisted, n); err != nil {
			return fmt.Errorf("hpart: save dict: %w", err)
		}
	}
	if !df.based || df.segBytes+int64(seg.Len()) >= df.baseBytes {
		return l.writeDictBase(df, n)
	}
	if err := l.fs.WriteFile(fmt.Sprintf(dictSegFmt, df.persisted, n), seg.Bytes()); err != nil {
		return fmt.Errorf("hpart: save dict: %w", err)
	}
	df.persisted = n
	df.segBytes += int64(seg.Len())
	return nil
}

// writeDictBase writes the first n terms as dict.txt and removes every
// segment. Both changes reach disk in the same manifest save, so a crash
// never pairs the new base with an old segment. Caller holds df.mu.
func (l *Layout) writeDictBase(df *dictFiles, n int) error {
	w, err := l.fs.Create(dictPath)
	if err != nil {
		return fmt.Errorf("hpart: %w", err)
	}
	size, err := l.Dict.WriteSegment(w, 0, n)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("hpart: save dict: %w", err)
	}
	for _, fi := range l.fs.List(dictSegDir) {
		if err := l.fs.Remove(fi.Path); err != nil {
			return fmt.Errorf("hpart: save dict: %w", err)
		}
	}
	df.based, df.persisted, df.baseBytes, df.segBytes = true, n, size, 0
	return nil
}

// readDict reads the base dictionary and then its segments in ID order,
// rejecting a gap or an overlap between them.
func readDict(fs *dfs.FS) (*rdf.Dict, *dictFiles, error) {
	base, err := fs.Stat(dictPath)
	if err != nil {
		return nil, nil, fmt.Errorf("hpart: no dictionary provided and %s missing: %w", dictPath, err)
	}
	dict := rdf.NewDict()
	readInto := func(path string) error {
		data, err := fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("hpart: %w", err)
		}
		return dict.ReadSegment(bytes.NewReader(data))
	}
	if err := readInto(dictPath); err != nil {
		return nil, nil, err
	}
	df := &dictFiles{based: true, baseBytes: base.Size}
	for _, fi := range fs.List(dictSegDir) {
		var first, end int
		if _, err := fmt.Sscanf(fi.Path, dictSegFmt, &first, &end); err != nil {
			return nil, nil, fmt.Errorf("hpart: dictionary segment %s: bad name", fi.Path)
		}
		if first != dict.Len() {
			return nil, nil, fmt.Errorf("hpart: dictionary segment %s starts at ID %d, after %d terms", fi.Path, first, dict.Len())
		}
		if err := readInto(fi.Path); err != nil {
			return nil, nil, fmt.Errorf("hpart: dictionary segment %s: %w", fi.Path, err)
		}
		if dict.Len() != end {
			return nil, nil, fmt.Errorf("hpart: dictionary segment %s ends at ID %d", fi.Path, dict.Len())
		}
		df.segBytes += fi.Size
	}
	df.persisted = dict.Len()
	return dict, df, nil
}

// Load reconstructs a Layout from a file system previously populated by
// Partition (and SaveDict, if dict is nil). The CS hierarchy itself is not
// persisted — query processing only needs the indexes — so
// Layout.Hierarchy is nil on loaded layouts.
func Load(fs *dfs.FS, dict *rdf.Dict) (*Layout, error) {
	read := func(path string, wantCols ...int) ([][]uint32, error) {
		r, err := fs.Open(path)
		if err != nil {
			return nil, fmt.Errorf("hpart: %w", err)
		}
		defer r.Close()
		cols, err := columnar.ReadColumns(r)
		if err != nil {
			return nil, fmt.Errorf("hpart: read %s: %w", path, err)
		}
		for _, want := range wantCols {
			if len(cols) == want {
				return cols, nil
			}
		}
		return nil, fmt.Errorf("hpart: %s has %d columns, want %v", path, len(cols), wantCols)
	}

	// A caller-provided dictionary is not known to match storage: the
	// first SaveDict writes a whole base.
	df := new(dictFiles)
	if dict == nil {
		var err error
		if dict, df, err = readDict(fs); err != nil {
			return nil, err
		}
	}

	lay := &Layout{
		Dict:        dict,
		VP:          make(map[rdf.ID]LevelSet),
		SI:          make(map[rdf.ID]int),
		OI:          make(map[rdf.ID]LevelSet),
		SubPartRows: make(map[SubPartKey]int),
		gen:         make(map[SubPartKey]uint64),
		fs:          fs,
		dictFiles:   df,
	}

	// Pre-epoch stores wrote 6 meta columns (no generations); their
	// sub-partitions all load as generation 0. Stores without an advisor
	// level remap wrote 7 (no LevelMap columns).
	meta, err := read(metaPath, 9, 7, 6)
	if err != nil {
		return nil, err
	}
	if len(meta[0]) != 1 {
		return nil, fmt.Errorf("hpart: malformed meta header")
	}
	lay.NumLevels = int(meta[0][0])
	if len(meta[1]) != len(meta[2]) || len(meta[1]) != lay.NumLevels {
		return nil, fmt.Errorf("hpart: malformed level counts")
	}
	lay.LevelTriples = make([]int64, lay.NumLevels)
	for i := range meta[1] {
		lay.LevelTriples[i] = int64(uint64(meta[1][i]) | uint64(meta[2][i])<<32)
	}
	if len(meta[3]) != len(meta[4]) || len(meta[3]) != len(meta[5]) {
		return nil, fmt.Errorf("hpart: malformed sub-partition inventory")
	}
	var stored int64
	for i := range meta[3] {
		key := SubPartKey{Level: int(meta[3][i]), Prop: meta[4][i]}
		lay.SubPartRows[key] = int(meta[5][i])
		if len(meta) > 6 && meta[6][i] != 0 {
			lay.gen[key] = uint64(meta[6][i])
		}
		if info, err := fs.Stat(lay.subPartFile(key)); err == nil {
			stored += info.Size
		}
	}
	lay.StoredBytes = stored
	if len(meta) > 8 {
		if len(meta[7]) != len(meta[8]) {
			return nil, fmt.Errorf("hpart: malformed level map")
		}
		lay.LevelMap = make(map[int]int, len(meta[7]))
		for i := range meta[7] {
			lay.LevelMap[int(meta[7][i])] = int(meta[8][i])
		}
	}

	vp, err := read(vpPath, 3)
	if err != nil {
		return nil, err
	}
	for i := range vp[0] {
		lay.VP[vp[0][i]] = joinSet(vp[1][i], vp[2][i])
	}
	si, err := read(siPath, 2)
	if err != nil {
		return nil, err
	}
	for i := range si[0] {
		lay.SI[si[0][i]] = int(si[1][i])
	}
	oi, err := read(oiPath, 3)
	if err != nil {
		return nil, err
	}
	for i := range oi[0] {
		lay.OI[oi[0][i]] = joinSet(oi[1][i], oi[2][i])
	}
	if err := lay.loadBlooms(); err != nil {
		return nil, err
	}
	if err := lay.loadJoinReductions(); err != nil {
		return nil, err
	}
	lay.refreshDictSnapshot()
	return lay, nil
}
