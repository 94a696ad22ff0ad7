package repro.core

import scala.collection.mutable

/** Edge-Path Index (Section 3.7): per subgraph, a map from each local edge to
  * the bounding paths that traverse it (with multiplicity, since bounding
  * "paths" are walks). A weight change `Δw` on an edge bumps the stored
  * distance of every path through it by `multiplicity · Δw` (Algorithm 2,
  * lines 1–3) — no shortest-path recomputation.
  */
final class EpIndex private (
    val entries: Map[Int, Array[(BoundingPath, Int)]]) extends Serializable {

  /** Bounding paths through local edge `le` (with multiplicity). */
  def pathsThrough(le: Int): Seq[(BoundingPath, Int)] =
    entries.getOrElse(le, Array.empty[(BoundingPath, Int)]).toSeq

  /** Apply one weight delta: bump every path through `localEdge` by
    * `multiplicity · delta`. It runs once per update event, so it walks the
    * edge's array and builds no collection.
    */
  def applyDelta(localEdge: Int, delta: Double): Unit = {
    val through = entries.getOrElse(localEdge, EpIndex.NoPaths)
    var i = 0
    while (i < through.length) {
      val entry = through(i)
      entry._1.distance += entry._2 * delta
      i += 1
    }
  }

  /** Number of (edge → path) list elements — the paper's storage-cost metric
    * (Section 3.7): `N_b(N_b−1)/2 · ξ · n_e` in the worst case.
    */
  def storageElements: Long = entries.valuesIterator.map(_.length.toLong).sum

  /** Distinct bounding paths indexed. */
  def distinctPaths: Long = entries.valuesIterator.flatMap(_.iterator.map(_._1.pathId)).toSet.size
}

object EpIndex {
  private val NoPaths = Array.empty[(BoundingPath, Int)]

  /** Index every bounding path of a subgraph by the edges it traverses. */
  def build(paths: Iterable[BoundingPath]): EpIndex = {
    val byEdge = mutable.HashMap.empty[Int, mutable.HashMap[Long, (BoundingPath, Int)]]
    paths.foreach { bp =>
      bp.localEdges.foreach { le =>
        val slot = byEdge.getOrElseUpdate(le, mutable.HashMap.empty)
        slot.get(bp.pathId) match {
          case Some((p, m)) => slot(bp.pathId) = (p, m + 1)
          case None => slot(bp.pathId) = (bp, 1)
        }
      }
    }
    new EpIndex(byEdge.iterator.map { case (le, m) => le -> m.values.toArray }.toMap)
  }
}
