package repro.core

import scala.collection.mutable

/** How lower bound distances are kept current when weights drift (DESIGN.md
  * §3). [[LbdMode.Faithful]] is the only mechanism: the paper's Algorithm 2
  * with the corrected bound — stored bounding-path distances are bumped by
  * Δw through the EP-Index, and `min(min stored distance, BD(phiBound))` is
  * a valid lower bound at all times (see [[PairBounds.lbd]]). The type stays
  * a parameter of the public build/update/lbd calls that the benchmark
  * harness (`kspbench/`) compiles against.
  */
sealed trait LbdMode
object LbdMode {
  case object Faithful extends LbdMode
}

/** One bounding path (Section 3.4): a fewest-vfrag level representative
  * between two boundary vertices of a subgraph. The walk and its vfrag count
  * `phi` never change; `distance` tracks the current real distance and is
  * maintained incrementally by the EP-Index / MFP-tree.
  *
  * @param pathId        unique id (`sgId << 32 | seq`)
  * @param sgId          owning subgraph
  * @param a             smaller global endpoint id
  * @param b             larger global endpoint id
  * @param phi           vfrag count of the walk (fixed)
  * @param localVertices walk as local vertex ids (may repeat: it is a walk)
  * @param localEdges    local edge ids along the walk, with multiplicity
  */
final class BoundingPath(
    val pathId: Long,
    val sgId: Int,
    val a: Int,
    val b: Int,
    val phi: Int,
    val localVertices: Array[Int],
    val localEdges: Array[Int],
    var distance: Double) extends Serializable {
  override def toString: String = s"BP($pathId,$a-$b,phi=$phi,d=$distance)"
}

/** Bounds between one pair of boundary vertices (Section 3.5): the paper's
  * *simple* bounding paths (fewest-vfrag simple paths from Yen, up to ξ
  * distinct levels, DESIGN.md §3). Their distances are maintained
  * incrementally by the EP-Index; because simple-path levels are widely
  * spaced, `BD(phiBound)` quickly exceeds `D_u` and the bound collapses to
  * the tight `D_u`.
  */
final class PairBounds(
    val a: Int,
    val b: Int,
    val paths: Vector[BoundingPath],
    val pathPhiBound: Long,
    val exactRefresh: Boolean = false) extends Serializable {
  require(paths.nonEmpty)

  /** For tie-dense pairs whose enumeration hit the path cap (`exactRefresh`),
    * no vfrag bound can be tight: the index keeps the exact interior-free
    * shortest distance instead, re-validated by one local Dijkstra per
    * update batch (a bounded, subgraph-local cost — still nothing like
    * CANDS's all-pairs recomputation).
    */
  var exactDist: Double = paths.iterator.map(_.distance).min

  /** Lower bound distance.
    *
    * `paths` holds *every* interior-free simple path with
    * `φ < pathPhiBound` (enumeration order by φ is weight-independent, so
    * this holds forever); their distances are EP-maintained exactly. Hence
    * `min(min stored distance, BD(pathPhiBound))` is a provably valid lower
    * bound at all times — and exact whenever the current shortest path is
    * stored. This dominates the paper's Theorem-1 case split.
    */
  def lbd(mode: LbdMode, unitTable: UnitWeightTable): Double =
    if (exactRefresh) exactDist
    else {
      // Stored distances are positive and never NaN, so `<` picks the same
      // value as `paths.map(_.distance).min`.
      var m = paths(0).distance
      var i = 1
      while (i < paths.length) {
        val d = paths(i).distance
        if (d < m) m = d
        i += 1
      }
      math.min(m, unitTable.bd(pathPhiBound))
    }
}

/** Sorted unit-weight table of one subgraph: supports `bd(m)` = sum of the
  * `m` smallest unit weights (Section 3.4, Example 4). Rebuilt per subgraph
  * per update batch in O(E log E).
  */
final class UnitWeightTable private (
    val totalVfrags: Long,
    units: Array[Double],
    counts: Array[Long],
    cumCount: Array[Long],
    cumSum: Array[Double]) extends Serializable {

  /** Sum of the `m` smallest unit weights; +∞ if the subgraph has fewer than
    * `m` vfrags (then no simple path can contain `m` vfrags).
    */
  def bd(m: Long): Double = {
    if (m <= 0) 0.0
    else if (m > totalVfrags) Double.PositiveInfinity
    else {
      // first index with cumCount(i) >= m
      var lo = 0; var hi = units.length - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cumCount(mid) >= m) hi = mid else lo = mid + 1 }
      val before = if (lo == 0) 0L else cumCount(lo - 1)
      val sumBefore = if (lo == 0) 0.0 else cumSum(lo - 1)
      sumBefore + (m - before) * units(lo)
    }
  }
  def bd(m: Int): Double = bd(m.toLong)
}

object UnitWeightTable {
  /** Build from a (sub)graph's current weights and fixed vfrag counts. Edges
    * are ordered by unit weight, ties in edge order (a stable sort), and the
    * prefix sums run left to right, so tied units with different vfrag
    * counts always sum in the same order.
    */
  def apply(g: WeightedGraph): UnitWeightTable = {
    val n = g.numEdges
    val unitOf = Array.tabulate(n)(g.unitWeight)
    val order = stableOrder(unitOf)
    val units = new Array[Double](n)
    val counts = new Array[Long](n)
    val cumCount = new Array[Long](n)
    val cumSum = new Array[Double](n)
    var count = 0L
    var sum = 0.0
    var i = 0
    while (i < n) {
      val e = order(i)
      units(i) = unitOf(e)
      counts(i) = g.vfrags(e).toLong
      count += counts(i)
      sum += units(i) * counts(i)
      cumCount(i) = count
      cumSum(i) = sum
      i += 1
    }
    new UnitWeightTable(count, units, counts, cumCount, cumSum)
  }

  /** Indices of `keys` in ascending key order, equal keys in index order: a
    * bottom-up merge sort on primitive arrays. Keys are positive and never
    * NaN, so `<=` agrees with `Ordering.Double`.
    */
  private def stableOrder(keys: Array[Double]): Array[Int] = {
    val n = keys.length
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var l = lo; var r = mid; var k = lo
        while (k < hi) {
          if (l < mid && (r >= hi || keys(src(l)) <= keys(src(r)))) { dst(k) = src(l); l += 1 }
          else { dst(k) = src(r); r += 1 }
          k += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }
}

/** Level-Dijkstra (DESIGN.md §3): from one source, find for every vertex the
  * `xi` smallest *distinct* achievable vfrag counts ("levels") over walks,
  * and for each level the minimum real distance plus one witness walk.
  *
  * Off the build and update path: the index stores simple bounding paths
  * only. Kept as the walk-level reference that tests check bounds against.
  *
  * Correctness: every edge advances the level by ≥ 1 vfrag, so processing
  * states `(vertex, level)` in lexicographic `(level, dist)` order settles
  * each state at its minimum distance; capping at `xi` levels per vertex is
  * safe because any level reachable only through a pruned state would be
  * preceded by `xi` smaller levels at that vertex.
  */
object LevelDijkstra {

  /** One settled level at a vertex. `parentVertex == -1` marks the source. */
  final class Level(
      val vertex: Int,
      val phi: Int,
      val dist: Double,
      val parentVertex: Int,
      val parentPhi: Int,
      val parentEdge: Int) extends Serializable

  /** Result: for each vertex, its settled levels in ascending phi. */
  final class Sweep(val source: Int, levels: Array[mutable.ArrayBuffer[Level]]) {
    def levelsOf(v: Int): Seq[Level] = levels(v).toSeq
    /** Reconstruct the witness walk of a level as (vertices, edges). */
    def walkOf(l: Level): (Array[Int], Array[Int]) = {
      val vs = mutable.ArrayBuffer.empty[Int]
      val es = mutable.ArrayBuffer.empty[Int]
      var cur = l
      while (cur.parentVertex >= 0) {
        vs += cur.vertex
        es += cur.parentEdge
        cur = levels(cur.parentVertex).find(_.phi == cur.parentPhi).getOrElse(
          sys.error(s"broken parent chain at ${cur.parentVertex}/${cur.parentPhi}"))
      }
      vs += cur.vertex
      (vs.reverseIterator.toArray, es.reverseIterator.toArray)
    }
  }

  /** Run a sweep from `source` keeping at most `xi` levels per vertex.
    *
    * @param transitAllowed vertices the walk may pass *through*; vertices
    *        failing the predicate are still reachable as endpoints but never
    *        expanded (the source always expands). Used to restrict bounding
    *        paths to boundary-interior-free walks, which keeps reference
    *        sequences in bijection with realizable paths (DESIGN.md §3).
    */
  def sweep(g: WeightedGraph, source: Int, xi: Int,
            transitAllowed: Int => Boolean = _ => true): Sweep = {
    require(xi >= 1)
    val settled = Array.fill(g.numVertices)(mutable.ArrayBuffer.empty[Level])
    val settledPhis = Array.fill(g.numVertices)(mutable.HashSet.empty[Int])
    implicit val ord: Ordering[Level] =
      Ordering.by[Level, (Int, Double)](l => (l.phi, l.dist)).reverse
    val pq = mutable.PriorityQueue.empty[Level]
    pq.enqueue(new Level(source, 0, 0.0, -1, -1, -1))
    while (pq.nonEmpty) {
      val l = pq.dequeue()
      val sv = settled(l.vertex)
      if (sv.size < xi && !settledPhis(l.vertex).contains(l.phi)) {
        sv += l
        settledPhis(l.vertex) += l.phi
        if (l.vertex == source || transitAllowed(l.vertex)) {
          g.foreachNeighbor(l.vertex) { (u, e) =>
            val nphi = l.phi + g.vfrags(e)
            if (settled(u).size < xi && !settledPhis(u).contains(nphi))
              pq.enqueue(new Level(u, nphi, l.dist + g.weights(e), l.vertex, l.phi, e))
          }
        }
      }
    }
    new Sweep(source, settled)
  }
}
