// Package ptable implements operating system page-table representations
// from the organizations Section 3.1 of the paper contrasts:
//
//   - The per-domain ProtTable of access rights, the sparse half of the
//     single-address-space-friendly split (the kernel keeps each page's
//     one global translation in its segment's page records).
//
//   - The InvertedTable, the IBM 801's frame-indexed table that Section
//     3.1 names as well suited to a single address space; experiment E12
//     measures its probe cost as it loads up.
//
//   - The LinearPTE, an entry of the conventional organization's
//     per-address-space linear table, which stores translation and
//     protection together and so duplicates shared mappings in every
//     address space.
package ptable

import "repro/internal/addr"

// LinearPTE is an entry of a conventional per-address-space linear page
// table: translation and protection stored together.
type LinearPTE struct {
	PFN    addr.PFN
	Rights addr.Rights
}
