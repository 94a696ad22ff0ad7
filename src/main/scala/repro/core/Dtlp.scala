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

  /** The pairs in a fixed order, ascending by `(a, b)`: slot `i` of every
    * LBD array this index returns ([[lbds]], [[SubgraphUpdate.lbds]]) is
    * `pairOrder(i)`. Derived from `pairs`, so it is not serialized.
    */
  @transient lazy val pairOrder: Array[PairBounds] =
    pairs.valuesIterator.toArray.sortBy(pb => (pb.a.toLong << 32) | pb.b)

  /** Current LBD of every boundary pair, in [[pairOrder]] (Algorithm 1 output). */
  def lbds: Array[Double] = {
    val out = new Array[Double](pairOrder.length)
    var i = 0
    while (i < out.length) {
      out(i) = pairOrder(i).lbd(LbdMode.Faithful, unitTable)
      i += 1
    }
    out
  }

  /** `(sgId, a, b, LBD)` of every pair, in `pairs` iteration order: the order
    * in which the build numbers skeleton edges ([[MbdFold]]).
    */
  def lbdRows: Seq[(Int, Int, Int, Double)] =
    pairs.valuesIterator.map(pb => (sg.id, pb.a, pb.b, pb.lbd(LbdMode.Faithful, unitTable))).toSeq

  /** Apply a weight-update batch (Algorithm 2) and return the refreshed LBDs
    * of *all* pairs of this subgraph (bound distances depend on the whole
    * unit-weight multiset, so every pair's LBD may move), with the work done.
    *
    * Each event's Δ is taken against this index's own current weight, just
    * before the event is written, so several events for one edge in a batch
    * compose; the caller's `WeightUpdate.delta` is not trusted.
    */
  def update(batch: Seq[WeightUpdate], mode: LbdMode): SubgraphUpdate = {
    write(batch)
    updateResult(batch)
  }

  /** The writes of [[update]] alone: local weights, EP-maintained distances,
    * the unit-weight table and exact refresh. The Spark deployment's update
    * job runs this and reads [[updateResult]] in the job that collects it.
    */
  private[repro] def write(batch: Seq[WeightUpdate]): Unit = {
    var touched = false
    batch.foreach { u =>
      sg.localEdgeOfGlobal.get(u.edgeId).foreach { le =>
        epIndex.applyDelta(le, u.newWeight - sg.local.weights(le))
        sg.local.weights(le) = u.newWeight
        touched = true
      }
    }
    if (touched) {
      unitTable = UnitWeightTable(sg.local)
      refreshExactDistances()
    }
  }

  /** What [[update]] returns for `batch`, read from the current state: the
    * LBDs and the work counts (EP bumps and exact-refresh Dijkstras depend
    * only on the index structure and the batch).
    */
  def updateResult(batch: Seq[WeightUpdate]): SubgraphUpdate = {
    var bumps = 0L
    var touched = false
    batch.foreach { u =>
      sg.localEdgeOfGlobal.get(u.edgeId).foreach { le =>
        bumps += epIndex.entries.get(le).fold(0)(_.length)
        touched = true
      }
    }
    new SubgraphUpdate(lbds, bumps, if (touched) exactRefreshBySource.size.toLong else 0L)
  }

  /** Audit of this index against its current local weights (off the update
    * path): every EP-maintained stored distance re-priced left to right, and
    * every pair's LBD against its exact interior-free distance.
    */
  def audit(): AuditReport = {
    var drift = 0.0
    var paths = 0L
    epPaths.foreach { bp =>
      var repriced = 0.0
      bp.localEdges.foreach(le => repriced += sg.local.weights(le))
      drift = math.max(drift, math.abs(bp.distance - repriced) / repriced)
      paths += 1
    }
    var violations = 0L
    pairs.valuesIterator.toSeq.groupBy(_.a).foreach { case (a, pbs) =>
      val res = Dijkstra.run(sg.local, sg.localOf(a), noTransit = lv => isLocalBoundary(lv))
      pbs.foreach { pb =>
        val exact = res.dist(sg.localOf(pb.b))
        if (pb.lbd(LbdMode.Faithful, unitTable) > exact + 1e-9 * math.max(1.0, exact)) violations += 1
      }
    }
    AuditReport(pairs.size.toLong, paths, drift, violations)
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

/** What one [[SubgraphDtlp.update]] did: the refreshed LBDs in the index's
  * [[SubgraphDtlp.pairOrder]], the EP bumps (stored-path entries walked)
  * and the exact-refresh Dijkstras it ran.
  */
final class SubgraphUpdate(val lbds: Array[Double], val epBumps: Long, val exactRefreshDijkstras: Long)
  extends Serializable

/** What one index update did, from either deployment. The counts are exact;
  * the times are wall-clock ns on the calling thread for routing (validate,
  * write the master graph, group by subgraph), the subgraph step (on the
  * pool, or the Spark jobs) and the MBD fold into the skeleton weights.
  */
final case class UpdateReport(
    events: Long,
    touchedSubgraphs: Long,
    epBumps: Long,
    exactRefreshDijkstras: Long,
    skeletonWeightsChanged: Long,
    routeNs: Long,
    subgraphNs: Long,
    foldNs: Long) {
  def totalNs: Long = routeNs + subgraphNs + foldNs
}

/** A [[Dtlp.audit]]: the largest relative difference between an
  * EP-maintained stored distance and its re-priced walk, over `paths`
  * stored paths, and the number of the `pairs` whose LBD exceeds the exact
  * interior-free distance (beyond a 1e-9 relative tolerance).
  */
final case class AuditReport(pairs: Long, paths: Long, maxRelativeDrift: Double, violations: Long) {
  def +(o: AuditReport): AuditReport =
    AuditReport(pairs + o.pairs, paths + o.paths, math.max(maxRelativeDrift, o.maxRelativeDrift), violations + o.violations)
}

/** Whole-index facade: partitioning + per-subgraph indexes + skeleton graph.
  * This is the single-process reference implementation; `repro.dist`
  * deploys the same driver steps ([[Dtlp.runUpdate]], [[MbdFold]]) over a
  * Spark cluster.
  */
final class Dtlp(
    val partitioning: Partitioning,
    val xi: Int,
    val mode: LbdMode,
    val subIndexes: Vector[SubgraphDtlp]) extends Serializable {

  private val mbds = MbdFold.build(subIndexes.size, subIndexes.flatMap(_.lbdRows))

  val skeleton: SkeletonGraph = mbds.skeleton

  /** Apply a weight-update batch everywhere: master graph, the touched
    * subgraph indexes (local weights and EP-Indexes), and skeleton weights
    * (MBD = min LBD across subgraphs). A batch naming an unknown edge or a
    * non-finite or non-positive weight is rejected whole, before anything
    * is written.
    *
    * The touched subgraph indexes are updated concurrently on the
    * [[WorkerPool]] (each writes only its own subgraph); the fold takes a
    * minimum per skeleton edge, so the skeleton weights equal those of a
    * sequential replay bit for bit. `update` must not overlap a running
    * [[KspDgEngine.batch]] over this index: queries read the local weights,
    * stored distances and skeleton weights it writes in place. The writes
    * run inside [[SkeletonGraph.writing]], so an overlapping batch throws.
    */
  def update(batch: Seq[WeightUpdate]): UpdateReport =
    Dtlp.runUpdate(partitioning, mbds, batch) { routed =>
      WorkerPool.map(routed.toSeq) { case (sgId, us) => sgId -> subIndexes(sgId).update(us, mode) }
    }

  /** Runtime bound audit over every subgraph index (see
    * [[SubgraphDtlp.audit]]); it reads the index and writes nothing, and it
    * must not overlap an `update`.
    */
  def audit(): AuditReport = WorkerPool.map(subIndexes)(_.audit()).foldLeft(AuditReport(0, 0, 0.0, 0))(_ + _)

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

  /** The update driver both deployments run, inside the skeleton's
    * [[SkeletonGraph.writing]]: route the batch, let `step` update the
    * touched subgraph indexes wherever they live and return their results,
    * fold the LBDs into the skeleton weights, and report each phase.
    */
  private[repro] def runUpdate(partitioning: Partitioning, mbds: MbdFold, batch: Seq[WeightUpdate])(
      step: Map[Int, Seq[WeightUpdate]] => Seq[(Int, SubgraphUpdate)]): UpdateReport =
    mbds.skeleton.writing {
      val t0 = System.nanoTime()
      val routed = partitioning.routeUpdates(batch)
      val t1 = System.nanoTime()
      val results = if (routed.isEmpty) Seq.empty else step(routed)
      val t2 = System.nanoTime()
      val changed = mbds.fold(results.map { case (sgId, r) => (sgId, r.lbds) })
      val t3 = System.nanoTime()
      UpdateReport(batch.size.toLong, results.size.toLong, results.map(_._2.epBumps).sum,
        results.map(_._2.exactRefreshDijkstras).sum, changed.toLong, t1 - t0, t2 - t1, t3 - t2)
    }
}
