package repro.core

import scala.collection.mutable

object SubgraphDtlp {
  /** Default [[SubgraphDtlp.levelSpread]]: with traffic variation τ the
    * cheapest unit weights sink to ≈ (1−τ), so the spread must exceed
    * ≈ 1/(1−τ) for `BD(phiBound)` to overtake the stored-path minimum and
    * keep the LBD tight under drift.
    */
  val DefaultLevelSpread: Double = 1.6
}

/** Level-1 DTLP index of one subgraph (Sections 3.4–3.7): bounding paths per
  * boundary pair, the EP-Index over them, and the unit-weight table backing
  * bound distances. Self-contained and serializable so the Spark layer can
  * ship whole per-subgraph indexes to executors ("SubgraphBolts").
  *
  * @param levelSpread  bounding-path enumeration continues until the next
  *        vfrag level is at least `levelSpread · ℓ₁` (or exhaustion) — the
  *        adaptive version of the paper's ξ tuning; set to 1.0 for the
  *        paper's fixed-ξ behaviour (used by the ξ-sensitivity benches)
  * @param exactRefreshEnabled  tie-dense pairs whose enumeration hits the
  *        path cap keep an exact interior-free shortest distance instead of
  *        a hopeless vfrag bound, re-validated by one local Dijkstra per
  *        update; set false for the paper's pure-bound behaviour
  */
final class SubgraphDtlp(
    val sg: Subgraph,
    val xi: Int,
    val levelSpread: Double = SubgraphDtlp.DefaultLevelSpread,
    val exactRefreshEnabled: Boolean = true) extends Serializable {

  /** local vertex id → is boundary (refine-step interior ban). */
  val isLocalBoundary: Array[Boolean] = {
    val arr = new Array[Boolean](sg.numVertices)
    sg.boundaryIds.foreach(b => arr(sg.localOf(b)) = true)
    arr
  }

  var unitTable: UnitWeightTable = UnitWeightTable(sg.local)

  /** Walks may not transit other boundary vertices: bounding paths (and so
    * skeleton edges) connect only *adjacent* boundary pairs, keeping the
    * skeleton free of per-subgraph cliques whose contracted paths would
    * drown the filter step in near-tied reference paths (DESIGN.md §3).
    */
  private def transitAllowed(lv: Int): Boolean = !isLocalBoundary(lv)

  /** Bounding paths for each adjacent boundary pair, keyed by global
    * (a < b): the paper's simple bounding paths from fewest-vfrag Yen. A pair
    * exists exactly when it is connected without transiting another boundary
    * vertex, i.e. when the enumeration yields a first path. Same-φ paths
    * count as one level (Section 3.4); a few ties per level are stored so
    * `D_u` covers them.
    */
  val pairs: Map[(Int, Int), PairBounds] = {
    var seq = 0L
    val out = mutable.LinkedHashMap.empty[(Int, Int), PairBounds]
    val localBoundary = sg.boundaryIds.map(sg.localOf)
    localBoundary.foreach { lb =>
      val bGlobal = sg.globalOf(lb)
      localBoundary.foreach { lc =>
        val cGlobal = sg.globalOf(lc)
        if (bGlobal < cGlobal) {
          val (bps0, phiBound, capHit) = boundingPathsFor(lb, lc, bGlobal, cGlobal, seq)
          if (bps0.nonEmpty) {
            val exact = capHit && exactRefreshEnabled
            // Exact-refresh pairs never use stored-path distances: keep a
            // few representatives, skip EP indexing of the rest.
            val bps = if (exact) bps0.take(xi) else bps0
            seq += bps.size
            out((bGlobal, cGlobal)) = new PairBounds(bGlobal, cGlobal, bps, phiBound, exactRefresh = exact)
          }
        }
      }
    }
    out.toMap
  }

  /** Simple bounding paths (Section 3.4): enumerate interior-free simple
    * paths in ascending vfrag count via Yen. The enumeration stops once at
    * least `xi` distinct φ levels are covered AND the next level is at
    * least [[SubgraphDtlp.LevelSpread]] · ℓ₁ — the adaptive version of the
    * paper's ξ tuning: without the spread requirement, clustered levels
    * leave `BD(phiBound)` far below `D_u` and the filter step converges
    * slowly (DESIGN.md §3). A hard cap bounds tie explosions.
    *
    * Returns the stored paths plus `phiBound`: a permanently valid lower
    * bound on the φ of every path NOT stored — `Long.MaxValue` when the
    * enumeration exhausted (no unstored path exists at all).
    */
  private def boundingPathsFor(lb: Int, lc: Int, bGlobal: Int, cGlobal: Int, seqStart: Long): (Vector[BoundingPath], Long, Boolean) = {
    val it = new YenIterator(sg.local, lb, lc,
      interiorAllowed = transitAllowed, weightOf = e => sg.local.vfrags(e).toDouble)
    val maxPaths = math.max(24, 6 * xi)
    val bps = Vector.newBuilder[BoundingPath]
    val phis = mutable.SortedSet.empty[Int]
    var seq = seqStart
    var count = 0
    var minPhi = Int.MaxValue
    var maxStoredPhi = 0
    var phiBound = Long.MaxValue // exhaustion: every simple path is stored
    var done = false
    while (!done && count < maxPaths) {
      it.next() match {
        case Some(p) =>
          val phi = math.round(p.distance).toInt // vfrag weight function → integral
          if (phi == 0) { /* degenerate zero-length; skip */ }
          else if (!phis.contains(phi) && phis.size >= xi &&
                   phi >= levelSpread * math.max(1, minPhi)) {
            // level budget used AND levels spread: all unstored have φ >= phi
            phiBound = phi.toLong
            done = true
          } else {
            phis += phi
            minPhi = math.min(minPhi, phi)
            maxStoredPhi = math.max(maxStoredPhi, phi)
            val realDist = p.edgeIds.map(sg.local.weights).sum
            bps += new BoundingPath((sg.id.toLong << 32) | seq, sg.id, bGlobal, cGlobal,
              phi, p.vertices.toArray, p.edgeIds.toArray, realDist)
            seq += 1
            count += 1
          }
        case None => done = true // exhausted: phiBound stays MaxValue
      }
    }
    // Cap hit mid-enumeration: unstored paths may share the last level.
    val capHit = !done && count >= maxPaths
    if (capHit) phiBound = maxStoredPhi.toLong
    (bps.result(), phiBound, capHit)
  }

  /** Paths whose distances the EP-Index must maintain: all except those of
    * exact-refresh pairs (whose LBD never reads stored distances).
    */
  def epPaths: Seq[BoundingPath] =
    pairs.valuesIterator.filterNot(_.exactRefresh).flatMap(_.paths).toSeq

  val epIndex: EpIndex = EpIndex.build(epPaths)

  /** Exact-refresh pairs grouped by local source vertex: one noTransit
    * Dijkstra per source refreshes all of its tie-dense pairs.
    */
  private val exactRefreshBySource: Map[Int, Seq[PairBounds]] =
    pairs.valuesIterator.filter(_.exactRefresh).toSeq.groupBy(pb => sg.localOf(pb.a))

  refreshExactDistances() // initial values (handles drifted-at-build graphs)

  /** Re-validate `exactDist` of tie-dense pairs at current weights. */
  private def refreshExactDistances(): Unit =
    exactRefreshBySource.foreach { case (la, pbs) =>
      val res = Dijkstra.run(sg.local, la, noTransit = lv => isLocalBoundary(lv))
      pbs.foreach(pb => pb.exactDist = res.dist(sg.localOf(pb.b)))
    }

  /** Current LBD of every boundary pair (Algorithm 1 output). */
  def lbds: Seq[(Int, Int, Double)] =
    pairs.valuesIterator.map(pb => (pb.a, pb.b, pb.lbd(LbdMode.Faithful, unitTable))).toSeq

  /** Apply a weight-update batch (Algorithm 2) and return the refreshed LBDs
    * of *all* pairs of this subgraph (bound distances depend on the whole
    * unit-weight multiset, so every pair's LBD may move).
    *
    * Each event's Δ is taken against this index's own current weight, just
    * before the event is written, so several events for one edge in a batch
    * compose; the caller's `WeightUpdate.delta` is not trusted.
    */
  def update(batch: Seq[WeightUpdate], mode: LbdMode): Seq[(Int, Int, Double)] = {
    val relevant = batch.filter(u => sg.localEdgeOfGlobal.contains(u.edgeId))
    if (relevant.isEmpty) return Seq.empty
    relevant.foreach { u =>
      val le = sg.localEdgeOfGlobal(u.edgeId)
      epIndex.applyDelta(le, u.newWeight - sg.local.weights(le))
      sg.local.weights(le) = u.newWeight
    }
    unitTable = UnitWeightTable(sg.local)
    refreshExactDistances()
    lbds
  }

  /** Partial k-shortest paths between two member vertices with boundary-free
    * interiors (refine step, Section 5.2). Result paths use global vertex
    * and edge ids, oriented `aG → bG`, priced at current weights.
    */
  def partialKsp(aG: Int, bG: Int, k: Int): Seq[Path] = {
    val la = sg.localOf(aG)
    val lb = sg.localOf(bG)
    Yen.ksp(sg.local, la, lb, k, interiorAllowed = v => !isLocalBoundary(v)).map(toGlobal)
  }

  private def toGlobal(p: Path): Path =
    Path(p.vertices.map(sg.globalOf), p.edgeIds.map(sg.globalEdgeOfLocal), p.distance)

  /** Exact interior-free shortest distances from an arbitrary member vertex
    * to each boundary vertex (and any `extraTargets` members), for
    * query-time skeleton augmentation (Section 5.3, Step 1). Computed fresh
    * per query by one banned Dijkstra, so the exact distance is itself the
    * tightest valid lower bound — no index maintenance involved.
    *
    * The `extraTargets` (the query's other endpoint) are not transited
    * either: a simple path between the two endpoints never passes through
    * one of them in its interior, so the bounds stay valid, and the
    * skeleton gets no attachment edge that only a non-simple walk realizes.
    */
  def boundsFrom(vG: Int, extraTargets: Set[Int] = Set.empty): Seq[(Int, Double)] = {
    val extras = extraTargets.filter(sg.contains)
    val extraLocal = extras.map(sg.localOf)
    val res = Dijkstra.run(sg.local, sg.localOf(vG),
      noTransit = lv => isLocalBoundary(lv) || extraLocal.contains(lv))
    val targets = (sg.boundaryIds.toSet ++ extras) - vG
    targets.toSeq.sorted.flatMap { tG =>
      val d = res.dist(sg.localOf(tG))
      if (d.isInfinite) None else Some(tG -> d)
    }
  }
}

/** Whole-index facade: partitioning + per-subgraph indexes + skeleton graph.
  * This is the single-process reference implementation; `repro.dist`
  * deploys the same driver steps ([[Partitioning.routeUpdates]],
  * [[MbdFold]]) over a Spark cluster.
  */
final class Dtlp(
    val partitioning: Partitioning,
    val xi: Int,
    val mode: LbdMode,
    val subIndexes: Vector[SubgraphDtlp]) extends Serializable {

  private val mbds = new MbdFold

  val skeleton: SkeletonGraph = SkeletonGraph.build(mbds.fold(
    subIndexes.flatMap(idx => idx.lbds.map { case (a, b, d) => (idx.sg.id, a, b, d) })))

  /** Apply a weight-update batch everywhere: master graph, the touched
    * subgraph indexes (local weights and EP-Indexes), and skeleton weights
    * (MBD = min LBD across subgraphs). A batch naming an unknown edge or a
    * non-finite or non-positive weight is rejected whole, before anything
    * is written.
    *
    * The touched subgraph indexes are updated concurrently on the
    * [[WorkerPool]] (each writes only its own subgraph); their LBD rows are
    * folded in routing order, so the skeleton weights equal those of a
    * sequential replay bit for bit. `update` must not overlap a running
    * [[KspDgEngine.batch]] over this index: queries read the local weights,
    * stored distances and skeleton weights it writes in place. The writes
    * run inside [[SkeletonGraph.writing]], so an overlapping batch throws.
    */
  def update(batch: Seq[WeightUpdate]): Unit = skeleton.writing {
    val routed = partitioning.routeUpdates(batch).toSeq
    val rows = WorkerPool.map(routed) { case (sgId, us) =>
      subIndexes(sgId).update(us, mode).map { case (a, b, d) => (sgId, a, b, d) }
    }
    skeleton.updateWeights(mbds.fold(rows.flatten))
  }

  /** Total EP-Index storage elements across subgraphs (paper's cost metric). */
  def epStorageElements: Long = subIndexes.iterator.map(_.epIndex.storageElements).sum
}

object Dtlp {
  /** Algorithm 1: partition, index every subgraph, assemble the skeleton.
    * The subgraph indexes are built concurrently on the [[WorkerPool]]; each
    * reads only its own subgraph and numbers its paths `sgId << 32 | seq`,
    * so the index does not depend on thread timing.
    * `levelSpread`/`exactRefreshEnabled` default to the corrected adaptive
    * behaviour; pass (1.0, false) for the paper's fixed-ξ pure-bound
    * mechanism (DESIGN.md §3). `mode` has the single value
    * [[LbdMode.Faithful]].
    */
  def build(
      g: WeightedGraph,
      z: Int,
      xi: Int,
      mode: LbdMode = LbdMode.Faithful,
      levelSpread: Double = SubgraphDtlp.DefaultLevelSpread,
      exactRefreshEnabled: Boolean = true): Dtlp = {
    val partitioning = Partitioner.partition(g, z)
    val subIndexes = WorkerPool.map(partitioning.subgraphs)(new SubgraphDtlp(_, xi, levelSpread, exactRefreshEnabled)).toVector
    new Dtlp(partitioning, xi, mode, subIndexes)
  }
}
