package repro.mfp

import repro.core.BoundingPath
import scala.collection.mutable

/** EP-Index-compatible facade over LSH-grouped MFP-trees (Section 4): the
  * per-edge bounding-path lists are deduplicated through shared tree
  * prefixes, while supporting the same `applyDelta` maintenance operation
  * ("find the tail node of the edge, walk up `|P|` steps, bump distances").
  *
  * @param hashFunctions MinHash signature length `h`
  * @param bands         LSH bands `b` (`h % b == 0`)
  */
final class CompressedEpIndex(
    paths: Iterable[BoundingPath],
    hashFunctions: Int = 8,
    bands: Int = 4) extends Serializable {

  private val pathById: Map[Long, BoundingPath] = paths.map(p => p.pathId -> p).toMap

  /** Local edge id → path-id multiset (multiplicity > 1 only for walks that
    * reuse an edge; kept aside because tree nodes store sets).
    */
  private val pathIdsOfEdge: Map[Int, Map[Long, Int]] = {
    val m = mutable.HashMap.empty[Int, mutable.HashMap[Long, Int]]
    paths.foreach { bp =>
      bp.localEdges.foreach { le =>
        val slot = m.getOrElseUpdate(le, mutable.HashMap.empty)
        slot(bp.pathId) = slot.getOrElse(bp.pathId, 0) + 1
      }
    }
    m.iterator.map { case (e, mm) => e -> mm.toMap }.toMap
  }

  /** The merged tree `T_e`: one MFP-tree per LSH group (Figure 13's children
    * of the empty root, modelled as a list of trees).
    */
  val trees: Vector[MfpTree] = {
    if (pathIdsOfEdge.isEmpty) Vector.empty
    else {
      val signatures = pathIdsOfEdge.toSeq.sortBy(_._1).map { case (e, pids) =>
        e -> MinHash.signature(pids.keys, hashFunctions)
      }
      val groups = Lsh.group(signatures, bands)
      val occurrences: Map[Long, Int] =
        pathIdsOfEdge.valuesIterator.flatMap(_.keysIterator).toSeq.groupBy(identity).map { case (p, xs) => p -> xs.size }
      groups.map { group =>
        MfpTree.build(group.map(e => e -> pathIdsOfEdge(e).keys.toSeq), occurrences)
      }
    }
  }

  private val treeOfEdge: Map[Int, MfpTree] =
    trees.flatMap(t => t.edges.map(_ -> t)).toMap

  /** Same contract as `EpIndex.applyDelta`: bump the stored distance of every
    * bounding path through `localEdge` by `multiplicity · delta`.
    */
  def applyDelta(localEdge: Int, delta: Double): Unit =
    treeOfEdge.get(localEdge).foreach { tree =>
      val mults = pathIdsOfEdge(localEdge)
      tree.pathSetOf(localEdge).foreach { pid =>
        pathById(pid).distance += mults(pid) * delta
      }
    }

  /** Path-id set recovered from the trees (for equivalence tests). */
  def pathSetOf(localEdge: Int): Set[Long] =
    treeOfEdge.get(localEdge).map(_.pathSetOf(localEdge)).getOrElse(Set.empty)

  /** Tree nodes — the compressed counterpart of `EpIndex.storageElements`. */
  def storageNodes: Long = trees.iterator.map(_.nodeCount.toLong).sum

  /** Uncompressed element count (what a flat EP-Index would store). */
  def flatElements: Long = pathIdsOfEdge.valuesIterator.map(_.size.toLong).sum
}
