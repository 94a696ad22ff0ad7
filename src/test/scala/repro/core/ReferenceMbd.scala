package repro.core

import scala.collection.mutable

/** DTLP maintenance's LBD-to-skeleton step as it was before it moved onto
  * primitive arrays, frozen as a test oracle: the boxed-tuple unit-weight
  * table, the `iterator.min` LBD, the `(sgId, a, b, lbd)` row fold over a
  * `HashMap` of `HashMap`s, and the skeleton write through a pair → edge
  * map. [[MaintenanceDifferentialSpec]] checks that the production path
  * yields the same LBD and skeleton-weight bits.
  */
object ReferenceMbd {

  /** The unit-weight table built by a boxed `sortBy` over `(unit, vfrags)`. */
  final class UnitTable(g: WeightedGraph) {
    private val byUnit = (0 until g.numEdges)
      .map(e => (g.unitWeight(e), g.vfrags(e).toLong))
      .sortBy(_._1)
    private val units = byUnit.map(_._1).toArray
    private val counts = byUnit.map(_._2).toArray
    private val cumCount = counts.scanLeft(0L)(_ + _).tail
    private val cumSum = byUnit.map { case (u, c) => u * c }.scanLeft(0.0)(_ + _).tail.toArray
    val totalVfrags: Long = cumCount.lastOption.getOrElse(0L)

    def bd(m: Long): Double = {
      if (m <= 0) 0.0
      else if (m > totalVfrags) Double.PositiveInfinity
      else {
        var lo = 0; var hi = units.length - 1
        while (lo < hi) { val mid = (lo + hi) >>> 1; if (cumCount(mid) >= m) hi = mid else lo = mid + 1 }
        val before = if (lo == 0) 0L else cumCount(lo - 1)
        val sumBefore = if (lo == 0) 0.0 else cumSum(lo - 1)
        sumBefore + (m - before) * units(lo)
      }
    }
  }

  def lbd(pb: PairBounds, table: UnitTable): Double =
    if (pb.exactRefresh) pb.exactDist
    else math.min(pb.paths.iterator.map(_.distance).min, table.bd(pb.pathPhiBound))

  /** `(sgId, a, b, lbd)` rows of one subgraph index at its current state. */
  def rows(idx: SubgraphDtlp): Seq[(Int, Int, Int, Double)] = {
    val table = new UnitTable(idx.sg.local)
    idx.pairs.valuesIterator.map(pb => (idx.sg.id, pb.a, pb.b, lbd(pb, table))).toSeq
  }

  /** The per-pair, per-subgraph LBD fold. */
  final class Fold {
    private val lbdOf = mutable.HashMap.empty[(Int, Int), mutable.HashMap[Int, Double]]

    def fold(rows: Iterable[(Int, Int, Int, Double)]): Seq[(Int, Int, Double)] = {
      val named = mutable.LinkedHashSet.empty[(Int, Int)]
      rows.foreach { case (sgId, a, b, lbd) =>
        lbdOf.getOrElseUpdate((a, b), mutable.HashMap.empty)(sgId) = lbd
        named += ((a, b))
      }
      named.iterator.map { case (a, b) => (a, b, lbdOf((a, b)).valuesIterator.min) }.toSeq
    }
  }

  /** Skeleton weights keyed by pair, written the way `updateWeights` did. */
  final class SkeletonWeights(initial: Iterable[(Int, Int, Double)]) {
    val weightOf: mutable.LinkedHashMap[(Int, Int), Double] = {
      val canonical = mutable.LinkedHashMap.empty[(Int, Int), Double]
      initial.foreach { case (a, b, w) =>
        val key = if (a < b) (a, b) else (b, a)
        canonical(key) = canonical.get(key).fold(w)(math.min(_, w))
      }
      canonical
    }

    def updateWeights(changes: Iterable[(Int, Int, Double)]): Unit =
      changes.foreach { case (a, b, mbd) =>
        val key = if (a < b) (a, b) else (b, a)
        if (weightOf.contains(key)) weightOf(key) = mbd
      }
  }

  /** The old driver over an index whose subgraph indexes the production
    * `update` has already written: re-derive the touched subgraphs' rows
    * with the frozen formulas and fold them into the frozen skeleton.
    */
  final class Driver(dtlp: Dtlp) {
    private val mbds = new Fold
    val skeleton = new SkeletonWeights(mbds.fold(dtlp.subIndexes.flatMap(rows)))

    def afterUpdate(batch: Seq[WeightUpdate]): Unit = {
      val touched = batch.map(u => dtlp.partitioning.subgraphOfEdge(u.edgeId)).distinct
      skeleton.updateWeights(mbds.fold(touched.flatMap(sgId => rows(dtlp.subIndexes(sgId)))))
    }
  }
}
