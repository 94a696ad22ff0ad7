package kspbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.dist.{SparkDtlp, SparkRefineService}
import repro.mfp.CompressedEpIndex
import scala.collection.mutable

/** In-memory span totals and counters, recorded by the benchmark around its
  * calls into the program's layers. Thread-safe; written when the run ends.
  */
final class Spans {
  private val nanos = mutable.HashMap.empty[String, Long]
  private val counts = mutable.HashMap.empty[String, Long]

  def time[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    try body finally add(name, System.nanoTime() - t0)
  }
  private def add(name: String, ns: Long): Unit = synchronized { nanos(name) = nanos.getOrElse(name, 0L) + ns }
  def count(name: String, n: Long = 1): Unit = synchronized { counts(name) = counts.getOrElse(name, 0L) + n }
  def ms(name: String): Double = synchronized { nanos.getOrElse(name, 0L) / 1e6 }
  def n(name: String): Long = synchronized { counts.getOrElse(name, 0L) }
}

/** Pass-through [[RefineService]] that times every call into the wrapped
  * service and counts the refine work it was asked for.
  */
final class TracedRefineService(inner: RefineService, @transient spans: Spans) extends RefineService {
  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] = {
    val out = spans.time("refine")(inner.partialKsp(requests))
    spans.count("refine.rounds")
    spans.count("refine.pair_requests", requests.size)
    spans.count("refine.subgraph_ksp_calls", requests.iterator.map(_.sgIds.size.toLong).sum)
    spans.count("refine.partial_paths", out.valuesIterator.map(_.size.toLong).sum)
    out
  }

  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)] =
    spans.time("attach")(inner.attachmentBounds(v, extraTargets))

  override def attachmentBoundsBatch(items: Seq[(Int, Set[Int])]): Map[(Int, Set[Int]), Seq[(Int, Double)]] =
    spans.time("attach")(inner.attachmentBoundsBatch(items))
}

/** Spark-side counters from the listener bus: jobs, job wall time, task run
  * and deserialization time, and result bytes shipped to the driver, split
  * by the operation (`setup`, `update`, `query`) the submitting thread was
  * tagged with through [[SparkCounters.OpKey]].
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.Totals
  private val jobStart = mutable.HashMap.empty[Int, (String, Long)]
  private val opOfStage = mutable.HashMap.empty[Int, String]
  private val totals = mutable.HashMap.empty[String, Totals]
  @volatile private var started = 0L
  @volatile private var ended = 0L

  private def add(op: String, t: Totals): Unit = totals(op) = totals.getOrElse(op, Totals()) + t

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val op = Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.OpKey))).getOrElse("other")
    jobStart(e.jobId) = (op, e.time)
    e.stageIds.foreach(opOfStage(_) = op)
    started += 1
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (op, t) => add(op, Totals(jobs = 1, jobMs = e.time - t)) }
    ended += 1
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    Option(e.taskMetrics).foreach { m =>
      add(opOfStage.getOrElse(e.stageId, "other"),
        Totals(taskRunMs = m.executorRunTime, taskDeserializeMs = m.executorDeserializeTime, resultBytes = m.resultSize))
    }
  }

  /** Wait until the asynchronous listener bus has delivered every job end. */
  def settle(): Unit = {
    var stable = 0
    var last = -1L
    while (stable < 5) {
      Thread.sleep(50)
      val now = ended
      if (now == started && now == last) stable += 1 else stable = 0
      last = now
    }
  }

  def opTotals(op: String): Totals = synchronized { totals.getOrElse(op, Totals()) }
}

object SparkCounters {
  /** Spark local property naming the operation a job serves. */
  val OpKey = "kspbench.op"

  final case class Totals(jobs: Long = 0, jobMs: Long = 0, taskRunMs: Long = 0,
                          taskDeserializeMs: Long = 0, resultBytes: Long = 0) {
    def +(o: Totals): Totals = Totals(jobs + o.jobs, jobMs + o.jobMs, taskRunMs + o.taskRunMs,
      taskDeserializeMs + o.taskDeserializeMs, resultBytes + o.resultBytes)
  }
}

/** `Dtlp.build` and `Dtlp.update` repeated through their public steps, each
  * step timed, plus the per-layer counters those steps imply.
  */
object Replay {

  def build(g: WeightedGraph, s: Settings, spans: Spans): Dtlp = {
    val p = spans.time("build.partition")(Partitioner.partition(g, s.z))
    val subs = spans.time("build.subgraph_index")(p.subgraphs.map(new SubgraphDtlp(_, s.xi)))
    spans.time("build.skeleton")(new Dtlp(p, s.xi, LbdMode.Faithful, subs))
  }

  /** Replays `Dtlp.update` on `dtlp`; keeps its own copy of the pair →
    * indexing-subgraphs map that `Dtlp` holds privately.
    */
  final class Updater(dtlp: Dtlp) {
    private val indexing: Map[(Int, Int), Array[Int]] =
      dtlp.subIndexes.flatMap(idx => idx.pairs.keysIterator.map(_ -> idx.sg.id))
        .groupBy(_._1).map { case (pair, xs) => pair -> xs.map(_._2).toArray }

    /** Applies `batch` exactly as `Dtlp.update` does; returns the touched
      * subgraph ids.
      */
    def update(batch: Seq[WeightUpdate], spans: Spans): Seq[Int] = {
      val p = dtlp.partitioning
      val skeletonBefore = dtlp.skeleton.graph.weights.clone()
      p.graph.applyUpdates(batch)
      val bySg = batch.groupBy(u => p.subgraphOfEdge(u.edgeId))
      val touched = bySg.keysIterator.filter(_ >= 0).toSeq
      touched.foreach { sgId =>
        val idx = dtlp.subIndexes(sgId)
        spans.count("update.ep_bumps", bySg(sgId).iterator
          .flatMap(u => idx.sg.localEdgeOfGlobal.get(u.edgeId))
          .map(le => idx.epIndex.pathsThrough(le).size.toLong).sum)
        spans.count("update.exact_refresh_dijkstras",
          idx.pairs.valuesIterator.filter(_.exactRefresh).map(_.a).toSet.size.toLong)
      }
      spans.time("update.subgraph")(touched.foreach(sgId => dtlp.subIndexes(sgId).update(bySg(sgId), dtlp.mode)))
      spans.time("update.mbd") {
        val affected = touched.iterator.flatMap(sgId => dtlp.subIndexes(sgId).pairs.keysIterator).toSet
        val changes = affected.iterator.map { case (a, b) =>
          val mbd = indexing((a, b)).iterator
            .map(s => dtlp.subIndexes(s).pairs((a, b)).lbd(dtlp.mode, dtlp.subIndexes(s).unitTable))
            .min
          (a, b, mbd)
        }.toSeq
        dtlp.skeleton.updateWeights(changes)
      }
      val after = dtlp.skeleton.graph.weights
      spans.count("update.skeleton_edges_changed", after.indices.count(i => after(i) != skeletonBefore(i)).toLong)
      spans.count("update.edges", batch.size.toLong)
      spans.count("update.touched_subgraphs", touched.size.toLong)
      spans.count("update.snapshots")
      touched
    }

    /** No public seam inside `SubgraphDtlp.update`: re-run its unit-weight
      * table rebuild for the touched subgraphs, in isolation.
      */
    def rerunUnitTables(touched: Seq[Int], spans: Spans): Unit =
      touched.foreach(sgId => spans.time("update.unit_table")(UnitWeightTable(dtlp.subIndexes(sgId).sg.local)))
  }

  /** Per-layer costs with no public seam, re-run in isolation on a freshly
    * built index (before any update, so weights are the build weights).
    */
  def isolatedBuildCosts(dtlp: Dtlp, s: Settings, spans: Spans): Unit =
    dtlp.subIndexes.foreach { idx =>
      val local = idx.sg.local
      idx.sg.boundaryIds.foreach { b =>
        spans.time("build.level_sweep")(LevelDijkstra.sweep(local, idx.sg.localOf(b), s.xi, lv => !idx.isLocalBoundary(lv)))
      }
      val paths = idx.epPaths
      spans.time("ep.build")(EpIndex.build(paths))
      val mfp = spans.time("mfp.build")(new CompressedEpIndex(paths))
      spans.count("mfp.storage_nodes", mfp.storageNodes)
      spans.count("mfp.flat_elements", mfp.flatElements)
    }
}

/** Checks the traced run makes on the program's index state. */
object IndexChecks {

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** First difference in any per-subgraph LBD or skeleton weight between two
    * indexes over the same partitioning, or None when bit-identical.
    */
  def difference(a: Dtlp, b: Dtlp): Option[String] = {
    if (a.subIndexes.size != b.subIndexes.size) return Some("subgraph count differs")
    a.subIndexes.iterator.zip(b.subIndexes.iterator).flatMap { case (x, y) =>
      if (x.pairs.keySet != y.pairs.keySet) Iterator(s"pairs of subgraph ${x.sg.id} differ")
      else x.pairs.iterator.collect {
        case (key, pb) if bits(pb.lbd(a.mode, x.unitTable)) != bits(y.pairs(key).lbd(b.mode, y.unitTable)) =>
          s"LBD of $key in subgraph ${x.sg.id} differs"
      }
    }.nextOption().orElse(skeletonDifference(a.skeleton, b.skeleton, a.subIndexes))
  }

  /** First skeleton weight that is not bit-identical between two skeletons. */
  def skeletonDifference(a: SkeletonGraph, b: SkeletonGraph, subIndexes: Seq[SubgraphDtlp]): Option[String] =
    if (a.numEdges != b.numEdges) Some("skeleton edge count differs")
    else subIndexes.iterator.flatMap(_.pairs.keysIterator).collectFirst {
      case (u, v) if a.weightOf(u, v).map(bits) != b.weightOf(u, v).map(bits) => s"skeleton weight of ($u,$v) differs"
    }

  /** Bound audit: every indexed pair's LBD against its exact interior-free
    * distance (one `Dijkstra.run` with the subgraph's boundary as `noTransit`
    * per source vertex). Returns (violations, LBD ÷ exact per pair).
    */
  def auditBounds(dtlp: Dtlp): (Long, Seq[Double]) = {
    var violations = 0L
    val ratios = mutable.ArrayBuffer.empty[Double]
    dtlp.subIndexes.foreach { idx =>
      idx.pairs.values.groupBy(_.a).foreach { case (a, pbs) =>
        val res = Dijkstra.run(idx.sg.local, idx.sg.localOf(a), noTransit = lv => idx.isLocalBoundary(lv))
        pbs.foreach { pb =>
          val exact = res.dist(idx.sg.localOf(pb.b))
          val lbd = pb.lbd(dtlp.mode, idx.unitTable)
          if (lbd > exact + 1e-9 * math.max(1.0, exact)) violations += 1
          if (exact > 0 && !exact.isInfinite) ratios += lbd / exact
        }
      }
    }
    (violations, ratios.toSeq)
  }
}

/** The traced pass's instrumentation: builds and updates replayed through
  * public calls, a timing wrapper around the refine service, Spark listener
  * counters, and the equivalence and bound checks, all outside the timed
  * windows except the wrappers themselves.
  *
  * A local workload's replayed indexes are the ones it queries and updates;
  * a Spark workload keeps a local replica for the per-layer build and update
  * split. A twin built by `Dtlp.build` and updated by `Dtlp.update` follows
  * the index that takes the timed updates.
  */
final class Tracer(s: Settings, spark: Option[SparkSession]) {
  val spans = new Spans
  val sparkCounters: Option[SparkCounters] = spark.map { ss =>
    val c = new SparkCounters
    ss.sparkContext.addSparkListener(c)
    c
  }
  val problems = mutable.ArrayBuffer.empty[String]
  val boundRatios = mutable.ArrayBuffer.empty[Double]
  var violations = 0L
  private var replica: Dtlp = _
  private var updater: Replay.Updater = _
  private var lastTouched: Seq[Int] = Seq.empty
  private var twin: Dtlp = _
  private var sparkIndex: Option[SparkDtlp] = None
  var buildReplays = 0

  /** One timed setup: the replayed build for a local workload, the Spark
    * build for a Spark workload.
    */
  def deployment(g: WeightedGraph): Deployment = spark match {
    case None =>
      val dtlp = Replay.build(g, s, spans)
      buildReplays += 1
      replica = dtlp
      val refine = new TracedRefineService(new LocalRefineService(dtlp), spans)
      val engine = () => new KspDgEngine(dtlp.partitioning, dtlp.skeleton, refine,
        maxIterations = s.maxIterations, queryParallelism = s.queryParallelism)
      val upd = new Replay.Updater(dtlp)
      Deployment.local(dtlp, engine, { b =>
        replica = dtlp
        updater = upd
        lastTouched = upd.update(b, spans)
      })
    case Some(ss) =>
      val d = op("setup")(SparkDtlp.build(ss, g, s.z, s.xi, LbdMode.Faithful, numWorkers = s.sparkCores))
      sparkIndex = Some(d)
      val refine = new TracedRefineService(new SparkRefineService(d), spans)
      val engine = () => new KspDgEngine(d.partitioning, d.skeleton, refine,
        maxIterations = s.maxIterations, queryParallelism = s.queryParallelism)
      Deployment.spark(d, engine, { b =>
        sparkIndex = Some(d)
        op("update")(spans.time("spark.update")(d.update(b)))
      })
  }

  /** Tag every Spark job the body submits with the operation it serves. */
  def op[T](name: String)(body: => T): T = spark match {
    case None => body
    case Some(ss) =>
      ss.sparkContext.setLocalProperty(SparkCounters.OpKey, name)
      try body finally ss.sparkContext.setLocalProperty(SparkCounters.OpKey, null)
  }

  def afterSetup(inputs: Inputs): Unit = {
    if (spark.isDefined) {
      replica = Replay.build(inputs.freshGraph(), s, spans)
      buildReplays += 1
      updater = new Replay.Updater(replica)
    }
    twin = Dtlp.build(inputs.freshGraph(), s.z, s.xi, LbdMode.Faithful)
    Replay.isolatedBuildCosts(replica, s, spans)
    compare("build")
  }

  def afterUpdate(batch: Seq[WeightUpdate]): Unit = {
    if (spark.isDefined) lastTouched = updater.update(batch, spans)
    updater.rerunUnitTables(lastTouched, spans)
    twin.update(batch)
    compare(s"update ${spans.n("update.snapshots")}")
  }

  private def compare(stage: String): Unit = {
    IndexChecks.difference(replica, twin).foreach(p => problems += s"$stage: replay vs Dtlp: $p")
    sparkIndex.foreach { d =>
      IndexChecks.skeletonDifference(d.skeleton, twin.skeleton, twin.subIndexes)
        .foreach(p => problems += s"$stage: SparkDtlp vs Dtlp: $p")
    }
    val (v, ratios) = IndexChecks.auditBounds(replica)
    violations += v
    boundRatios ++= ratios
  }

  def layerMetrics(traced: PassResult): Seq[Stats.Metric] = {
    sparkCounters.foreach(_.settle())
    val q = math.max(1L, traced.queries).toDouble
    val ups = math.max(1L, spans.n("update.snapshots")).toDouble
    val replays = math.max(1, buildReplays).toDouble
    val pairs = replica.subIndexes.iterator.flatMap(_.pairs.valuesIterator).toSeq
    val iterations = traced.answers.valuesIterator.map(_.iterations.toDouble).toSeq
    val queryMs = Stats.ms(traced.queryNs)
    val sc = sparkCounters.map(_.opTotals("query"))
    val jobs = sc.map(_.jobs).getOrElse(0L)
    def perJob(x: Long): Double = if (jobs == 0) 0.0 else x.toDouble / jobs
    def m(name: String, v: Double, unit: String) = Stats.Metric(name, v, unit)
    Seq(
      m("partition.ms", spans.ms("build.partition") / replays, "ms"),
      m("partition.subgraphs", replica.partitioning.subgraphs.size, "count"),
      m("partition.boundary_vertices", replica.partitioning.boundaryVertices.length, "count"),
      m("build.subgraph_index_ms", spans.ms("build.subgraph_index") / replays, "ms"),
      m("build.level_sweep_ms", spans.ms("build.level_sweep"), "ms"),
      m("build.pairs", pairs.size, "count"),
      m("build.paths_per_pair", pairs.map(_.paths.size).sum.toDouble / math.max(1, pairs.size), "count"),
      m("build.cap_hit_pairs", pairs.count(_.exactRefresh), "count"),
      m("ep.build_ms", spans.ms("ep.build"), "ms"),
      m("ep.elements", replica.epStorageElements.toDouble, "count"),
      m("skeleton.build_ms", spans.ms("build.skeleton") / replays, "ms"),
      m("skeleton.vertices", replica.skeleton.numVertices, "count"),
      m("skeleton.edges", replica.skeleton.numEdges, "count"),
      m("update.subgraph_ms", spans.ms("update.subgraph") / ups, "ms"),
      m("update.unit_table_ms", spans.ms("update.unit_table") / ups, "ms"),
      m("update.mbd_ms", spans.ms("update.mbd") / ups, "ms"),
      m("update.edges", spans.n("update.edges") / ups, "count"),
      m("update.touched_subgraphs", spans.n("update.touched_subgraphs") / ups, "count"),
      m("update.ep_bumps", spans.n("update.ep_bumps") / ups, "count"),
      m("update.exact_refresh_dijkstras", spans.n("update.exact_refresh_dijkstras") / ups, "count"),
      m("update.skeleton_edges_changed", spans.n("update.skeleton_edges_changed") / ups, "count"),
      m("bounds.lbd_tightness_p50", Stats.median(boundRatios.toSeq), "ratio"),
      m("bounds.violations", violations.toDouble, "count"),
      m("query.engine_self_ms", (queryMs - spans.ms("attach") - spans.ms("refine")) / q, "ms"),
      m("query.iterations_p50", Stats.median(iterations), "count"),
      m("query.iterations_max", iterations.max, "count"),
      m("query.cap_hits", traced.check.capStops.toDouble, "count"),
      m("query.attach_ms", spans.ms("attach") / q, "ms"),
      m("query.refine_ms", spans.ms("refine") / q, "ms"),
      m("query.refine_rounds", spans.n("refine.rounds") / q, "count"),
      m("query.pair_requests", spans.n("refine.pair_requests") / q, "count"),
      m("query.subgraph_ksp_calls", spans.n("refine.subgraph_ksp_calls") / q, "count"),
      m("query.partial_paths", spans.n("refine.partial_paths") / q, "count"),
      m("spark.jobs", jobs / q, "count"),
      m("spark.job_ms", perJob(sc.map(_.jobMs).getOrElse(0L)), "ms"),
      m("spark.task_run_ms", perJob(sc.map(_.taskRunMs).getOrElse(0L)), "ms"),
      m("spark.task_deserialize_ms", perJob(sc.map(_.taskDeserializeMs).getOrElse(0L)), "ms"),
      m("spark.result_bytes", perJob(sc.map(_.resultBytes).getOrElse(0L)), "bytes"),
      m("spark.refine_ms", if (spark.isEmpty) 0.0 else spans.ms("refine") / math.max(1L, spans.n("refine.rounds")), "ms"),
      m("spark.attach_ms", if (spark.isEmpty) 0.0 else spans.ms("attach") / q, "ms"),
      m("spark.update_ms", spans.ms("spark.update") / ups, "ms"),
      m("baselines.yen_query_p50_ms", Stats.median(traced.check.yenMs.toSeq), "ms"),
      m("mfp.build_ms", spans.ms("mfp.build"), "ms"),
      m("mfp.storage_nodes", spans.n("mfp.storage_nodes").toDouble, "count"),
      m("mfp.flat_elements", spans.n("mfp.flat_elements").toDouble, "count"))
  }
}
