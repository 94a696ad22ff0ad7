package kspbench

import org.apache.spark.SparkConf
import org.apache.spark.serializer.KryoSerializer
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.dist.{SparkDtlp, SparkKspEngine}
import scala.collection.mutable
import scala.reflect.ClassTag

/** One workload: graph size, traffic, and how the measured window is shared.
  *
  * A run builds the index `setupRepeats` times, applies `firstSnapshots`
  * snapshots to the read index, then reads for `epochs` epochs of equal
  * length; every epoch after the first starts with one more snapshot.
  * Within an epoch a scheduler interleaves, by time share:
  *  - the closed loop: one `engine.query` at a time, each from an empty pair
  *    cache;
  *  - `batchSize`-query batches on a second engine, each from an empty pair
  *    cache (first epoch only: a batch lasts as long as its slowest query,
  *    see README);
  *  - the `writes` snapshots of a separate write index, another setup build.
  * Interleaving lets every metric sample the same stretch of time. Neither
  * the cost of a query nor the set of timed snapshots depends on how far a
  * run gets: a pair cache kept across queries, or as many snapshots as time
  * allows, made a fast run faster still.
  *
  * Queries come from the seed's stream, or, with `closedPool` / `batchPool`
  * set, from fixed sets of queries ([[Inputs.queryPool]]) that the closed
  * loop and the batches replay in whole passes. Every run then times the
  * same mix of queries, which a workload with few, slow queries needs for a
  * steady median. With `batchPasses` the batches replay their pool exactly
  * that many times. The window runs on until every pass it began, every
  * batch pass and every write is complete.
  *
  * With a write index the read index's snapshots are untimed; without one,
  * they are the timed updates.
  */
final case class Plan(
    name: String,
    vertices: Int,
    firstSnapshots: Int,
    epochs: Int,
    batchSize: Int,
    closedShare: Double,
    batchShare: Double,
    writeShare: Double,
    spark: Boolean,
    setupRepeats: Int = 3,
    minHops: Int = 1,
    closedPool: Int = 0,
    batchPool: Int = 0,
    batchPasses: Int = 0,
    writes: Int = 0) {
  require(setupRepeats >= (if (writer) 2 else 1))
  require(epochs == 1 || closedPool == 0, "pooled queries need a single epoch")
  require(writer == (writes > 0), "a write share needs writes, and writes a share")
  require(batchPasses == 0 || batchPool > 0, "batch passes replay a batch pool")
  def writer: Boolean = writeShare > 0
  def snapshots: Int = math.max(writes, firstSnapshots + epochs - 1)

  def inputs(seed: Long, s: Settings): Inputs = new Inputs(name, seed, vertices, snapshots, s, minHops)
}

object Plan {
  /** Endpoints of the gated workloads' queries lie at least this many road
    * segments apart. Nearer pairs meet two known engine defects (README,
    * "Query endpoints"); drift-local keeps uniform pairs and shows them.
    */
  val GatedMinHops = 5

  val all: Seq[Plan] = Seq(
    Plan("query-local", vertices = 2500, firstSnapshots = 1, epochs = 1, batchSize = 64,
      closedShare = 0.45, batchShare = 0.4, writeShare = 0.15, spark = false, minHops = Plan.GatedMinHops,
      writes = 40),
    Plan("drift-local", vertices = 2500, firstSnapshots = 1, epochs = 12, batchSize = 64,
      closedShare = 0.8, batchShare = 0.2, writeShare = 0, spark = false),
    Plan("query-spark", vertices = 2000, firstSnapshots = 3, epochs = 1, batchSize = 32,
      closedShare = 0.55, batchShare = 0.3, writeShare = 0.15, spark = true, minHops = Plan.GatedMinHops,
      closedPool = 8, batchPool = 4, batchPasses = 2, writes = 8))

  def named(name: String): Plan =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}

/** The answer to one timed query, kept for the cross-pass checks. */
final case class Answer(epoch: Int, iterations: Int, paths: Seq[Vector[Int]])

/** What one pass over a workload measured. */
final class PassResult(maxIterations: Int, batchSize: Int) {
  val setupNs = mutable.ArrayBuffer.empty[Long]
  var indexBytes = 0L
  val closedMs = mutable.ArrayBuffer.empty[Double]
  val batchNs = mutable.ArrayBuffer.empty[Long]
  val updateNs = mutable.ArrayBuffer.empty[Long]
  var updateEdges = 0L
  val answers = mutable.LinkedHashMap.empty[Long, Answer]
  val check = new YenCheck(maxIterations)
  var wallS = 0.0

  def queries: Long = closedMs.size + batchNs.size.toLong * batchSize
  def queryNs: Long = (closedMs.sum * 1e6).toLong + batchNs.sum

  def endToEnd: Seq[Stats.Metric] = Seq(
    Stats.Metric("setup_s", Stats.median(setupNs.map(_ / 1e9).toSeq), "s"),
    Stats.Metric("index_bytes", indexBytes.toDouble, "bytes"),
    Stats.Metric("query_p50_ms", Stats.percentile(closedMs.toSeq, 50), "ms"),
    Stats.Metric("query_p95_ms", Stats.percentile(closedMs.toSeq, 95), "ms"),
    Stats.Metric("batch_qps", Stats.median(batchNs.map(ns => Stats.perSecond(batchSize, ns)).toSeq), "queries/s"),
    Stats.Metric("update_p50_ms", Stats.median(updateNs.map(_ / 1e6).toSeq), "ms"),
    Stats.Metric("update_edges_per_s", Stats.perSecond(updateEdges, updateNs.sum), "edges/s"))
}

/** A built index: a factory for query engines over it (each engine has its
  * own pair cache), the update that is timed, the plain update that readies
  * a read index untimed, and its serialized size.
  */
final case class Deployment(
    newEngine: () => KspDgEngine,
    update: Seq[WeightUpdate] => Unit,
    prepare: Seq[WeightUpdate] => Unit,
    indexBytes: () => Long,
    close: () => Unit = () => ())

object Deployment {
  private lazy val kryo = new KryoSerializer(new SparkConf(false)).newInstance()

  def kryoBytes[T: ClassTag](xs: Iterator[T]): Long =
    xs.map(x => kryo.serialize(x).remaining().toLong).sum

  def local(dtlp: Dtlp, engine: () => KspDgEngine, update: Seq[WeightUpdate] => Unit): Deployment =
    Deployment(engine, update, dtlp.update,
      () => kryoBytes(dtlp.subIndexes.iterator) + kryoBytes(Iterator(dtlp.skeleton)))

  def spark(d: SparkDtlp, engine: () => KspDgEngine, update: Seq[WeightUpdate] => Unit): Deployment =
    Deployment(engine, update, d.update,
      () => kryoBytes(d.indexes.collect().iterator) + kryoBytes(Iterator(d.skeleton)), () => d.close())
}

/** Runs workloads: the untraced pass that gives the end-to-end metrics, and
  * the traced pass of `--trace 1`.
  */
final class Runner(s: Settings, spark: Option[SparkSession]) {

  def untracedDeployment(g: WeightedGraph): Deployment = spark.fold(localDeployment(g))(sparkDeployment(_, g))

  private def localDeployment(g: WeightedGraph): Deployment = {
    val dtlp = Dtlp.build(g, s.z, s.xi, LbdMode.Faithful)
    Deployment.local(dtlp,
      () => KspDg.local(dtlp, maxIterations = s.maxIterations, queryParallelism = s.queryParallelism),
      dtlp.update)
  }

  private def sparkDeployment(ss: SparkSession, g: WeightedGraph): Deployment = {
    val d = SparkDtlp.build(ss, g, s.z, s.xi, LbdMode.Faithful, numWorkers = s.sparkCores)
    Deployment.spark(d,
      () => SparkKspEngine(d, maxIterations = s.maxIterations, queryParallelism = s.queryParallelism),
      d.update)
  }

  /** Warm the JIT on a separate small graph: a local build, about 650
    * queries and 30 snapshots; a Spark workload then also warms the Spark
    * path with about 140 queries and 4 snapshots. Spark query latency keeps
    * falling for about 80 queries of a fresh JVM (5.1 s down to 3.0 s for
    * eight queries); a shorter Spark warm-up left the measured window on
    * that slope.
    */
  def warmUp(seed: Long): Unit = {
    val inputs = new Inputs("warm-up", seed, 900, 30, s)
    warm(inputs, localDeployment(inputs.freshGraph()), snapshots = 30, closed = 400, batches = 4, batchSize = 64)
    spark.foreach { ss =>
      warm(inputs, sparkDeployment(ss, inputs.freshGraph()), snapshots = 4, closed = 48, batches = 3, batchSize = 32)
    }
  }

  private def warm(inputs: Inputs, d: Deployment, snapshots: Int, closed: Int, batches: Int, batchSize: Int): Unit = {
    val stream = inputs.queryStream()
    d.update(inputs.batches.head)
    val engine = d.newEngine()
    // A fresh pair cache every 16 queries, so that refines keep running.
    val results = (1 to closed).map { i =>
      if (i % 16 == 0) engine.invalidateCache()
      engine.query(stream.next())
    } ++
      Seq.fill(batches) { engine.invalidateCache(); engine.batch(Vector.fill(batchSize)(stream.next())) }.flatten
    new YenCheck(s.maxIterations).check(results.take(50), inputs.graphAt(1))
    // Further snapshots only after the queries: compounding drift loosens
    // the bounds until queries run to the iteration cap.
    inputs.batches.slice(1, snapshots).foreach(d.update)
    d.close()
  }

  /** One pass over `plan`: setup, then the measured reads and writes, with
    * every answer checked against Yen outside the timed windows.
    *
    * @param seconds length of the measured window
    */
  def run(plan: Plan, inputs: Inputs, seconds: Double, tracer: Option[Tracer] = None): PassResult = {
    val out = new PassResult(s.maxIterations, plan.batchSize)
    val start = System.nanoTime()
    val builds = (1 to plan.setupRepeats).map { _ =>
      val g = inputs.freshGraph()
      val t0 = System.nanoTime()
      val d = tracer.fold(untracedDeployment(g))(_.deployment(g))
      out.setupNs += System.nanoTime() - t0
      d
    }
    val reader = builds.last
    val writer = if (plan.writer) Some(builds(builds.size - 2)) else None
    builds.dropRight(if (plan.writer) 2 else 1).foreach(_.close())
    out.indexBytes = reader.indexBytes()
    tracer.foreach(_.afterSetup(inputs))

    def timedUpdate(d: Deployment, batch: Seq[WeightUpdate]): Unit = {
      val t0 = System.nanoTime()
      d.update(batch)
      out.updateNs += System.nanoTime() - t0
      out.updateEdges += batch.size
      tracer.foreach(_.afterUpdate(batch))
    }
    var writeEpoch = 0
    val oracle = inputs.freshGraph()
    val closedEngine = reader.newEngine()
    val batchEngine = reader.newEngine()
    var readEpoch = 0
    def advanceReader(): Unit = {
      val batch = inputs.batches(readEpoch)
      if (writer.isDefined) reader.prepare(batch) else timedUpdate(reader, batch)
      oracle.applyUpdates(batch)
      readEpoch += 1
    }

    def asQuery[T](body: => T): T = tracer.fold(body)(_.op("query")(body))
    val stream = inputs.queryStream()
    val closedPool = inputs.queryPool(plan.closedPool, firstId = 0)
    val batchPool = inputs.queryPool(plan.batchPool * plan.batchSize, firstId = plan.closedPool)
      .grouped(plan.batchSize).toVector
    var closedPos = 0
    var batchPos = 0
    val passMs = mutable.ArrayBuffer(0.0)
    def nextClosed(): KspQuery =
      if (closedPool.isEmpty) stream.next()
      else { closedPos += 1; closedPool((closedPos - 1) % closedPool.size) }
    def nextBatch(): Seq[KspQuery] =
      if (batchPool.isEmpty) Vector.fill(plan.batchSize)(stream.next())
      else { batchPos += 1; batchPool((batchPos - 1) % batchPool.size) }
    // An activity that replays a pool must finish the pass it began, and
    // fixed amounts of work must be done in full.
    val batchQuota = plan.batchPool * plan.batchPasses
    def unfinished(i: Int): Boolean = i match {
      case 0 => closedPool.nonEmpty && closedPos % closedPool.size != 0
      case 1 => batchPool.nonEmpty && (batchPos % batchPool.size != 0 || batchPos < batchQuota)
      case _ => writeEpoch < plan.writes
    }
    val epochNs = (seconds / plan.epochs * 1e9).toLong
    (1 to plan.epochs).foreach { e =>
      (1 to (if (e == 1) plan.firstSnapshots else 1)).foreach(_ => advanceReader())
      val results = mutable.ArrayBuffer.empty[KspResult]
      // Time shares of closed loop, batches and writes in this epoch; each
      // step runs the activity furthest behind its share.
      val shares = Array(plan.closedShare,
        if (e == 1) plan.batchShare else 0.0,
        if (e == 1 && writer.isDefined) plan.writeShare else 0.0)
      val spent = new Array[Long](3)
      val epochEnd = System.nanoTime() + epochNs
      // Every activity of the epoch runs at least once, however short, and
      // after the window only to finish what it must.
      def pending(i: Int): Boolean = shares(i) > 0 && (spent(i) == 0 || unfinished(i))
      var open = true
      while ({ open = System.nanoTime() < epochEnd; open || shares.indices.exists(pending) }) {
        if (writeEpoch >= plan.writes) shares(2) = 0.0
        if (batchQuota > 0 && batchPos >= batchQuota) shares(1) = 0.0
        val total = spent.sum.toDouble / shares.sum
        val next = shares.indices.filter(i => if (open) shares(i) > 0 else pending(i))
          .maxBy(i => if (spent(i) == 0) Double.MaxValue else shares(i) * total - spent(i))
        val t0 = System.nanoTime()
        next match {
          case 0 =>
            val sliceEnd = math.min(epochEnd, t0 + Runner.SliceNs)
            do {
              val q = nextClosed()
              closedEngine.invalidateCache()
              val q0 = System.nanoTime()
              results += asQuery(closedEngine.query(q))
              out.closedMs += Stats.ms(System.nanoTime() - q0)
              passMs(passMs.size - 1) += out.closedMs.last
              if (closedPool.nonEmpty && closedPos % closedPool.size == 0) passMs += 0.0
            } while (System.nanoTime() < sliceEnd && !(closedPool.nonEmpty && closedPos % closedPool.size == 0))
          case 1 =>
            val qs = nextBatch()
            batchEngine.invalidateCache()
            val b0 = System.nanoTime()
            results ++= asQuery(batchEngine.batch(qs))
            out.batchNs += System.nanoTime() - b0
          case _ =>
            timedUpdate(writer.get, inputs.batches(writeEpoch))
            writeEpoch += 1
        }
        spent(next) += System.nanoTime() - t0
      }
      val capsBefore = out.check.capStops
      out.check.check(results.toSeq, oracle)
      Console.err.println(f"[kspbench]   epoch $readEpoch%2d: ${results.size}%4d queries, closed loop ${spent(0) / 1e6}%6.0f ms, " +
        f"batches ${spent(1) / 1e6}%6.0f ms, writes ${spent(2) / 1e6}%6.0f ms, ${out.check.capStops - capsBefore}%3d cap stops" +
        (if (closedPool.isEmpty) "" else s"; closed-loop passes ${passMs.init.map(ms => f"$ms%.0f").mkString(" ")} ms"))
      results.foreach(r => out.answers(r.query.id) = Answer(readEpoch, r.iterations, r.paths.map(_.vertices)))
    }
    reader.close()
    writer.foreach(_.close())
    out.wallS = (System.nanoTime() - start) / 1e9
    out
  }
}

object Runner {
  /** Closed-loop queries run in slices of this length between other steps. */
  val SliceNs: Long = 200L * 1000 * 1000
}
