#ifndef XRTREE_XRTREE_XRTREE_ITERATOR_H_
#define XRTREE_XRTREE_XRTREE_ITERATOR_H_

#include "btree/leaf_cursor.h"
#include "xrtree/xrtree.h"

namespace xrtree {

/// The XR-tree's snapshot leaf cursor: the merge-scan backbone of the
/// XR-stack join (XrTree::Begin, LowerBound and UpperBound return it).
using XrIterator = XrTree::Cursor;

}  // namespace xrtree

#endif  // XRTREE_XRTREE_XRTREE_ITERATOR_H_
