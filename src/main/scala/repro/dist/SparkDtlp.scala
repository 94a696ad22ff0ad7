package repro.dist

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._

/** DTLP deployed on Spark (substituting for the paper's Storm topology —
  * DESIGN.md §2):
  *
  *   - the driver plays the EntranceSpout: it owns the partitioning metadata
  *     and the skeleton graph, and routes weight updates through the same
  *     steps as the local [[Dtlp]] ([[Partitioning.routeUpdates]],
  *     [[MbdFold]]);
  *   - the executors play SubgraphBolts: the per-subgraph level-1 indexes
  *     ([[SubgraphDtlp]]) live in a cached `Dataset`, spread over
  *     `numWorkers` partitions (one partition ≙ one server of the paper's
  *     cluster);
  *   - maintenance is a Spark job per batch: each partition updates its own
  *     subgraph indexes through their EP-Indexes and ships back the
  *     refreshed LBDs of the *touched* subgraphs only.
  */
final class SparkDtlp private (
    val spark: SparkSession,
    val partitioning: Partitioning,
    val xi: Int,
    val numWorkers: Int,
    @transient private var indexesDs: Dataset[SubgraphDtlp],
    val skeleton: SkeletonGraph,
    mbds: MbdFold) extends Serializable {

  import SparkDtlp._

  def indexes: Dataset[SubgraphDtlp] = indexesDs

  /** Apply a weight-update batch cluster-wide; one Spark job. A batch naming
    * an unknown edge or a non-finite or non-positive weight is rejected
    * whole, before anything is written. The writes run inside
    * [[SkeletonGraph.writing]], so a query batch they overlap throws.
    */
  def update(batch: Seq[WeightUpdate]): Unit = skeleton.writing {
    val bySg = partitioning.routeUpdates(batch)
    if (bySg.nonEmpty) {
      val bc = spark.sparkContext.broadcast(bySg)
      val updated = indexesDs
        .map { idx => idx.update(bc.value.getOrElse(idx.sg.id, Seq.empty), LbdMode.Faithful); idx }(kryo[SubgraphDtlp])
        .localCheckpoint(eager = false)
      // Materialize the new state; pull refreshed LBDs of touched subgraphs.
      val rows = updated
        .flatMap(idx => if (bc.value.contains(idx.sg.id)) lbdRows(idx) else Seq.empty)(LbdRowEncoder)
        .collect()
      indexesDs.unpersist(blocking = false)
      indexesDs = updated
      bc.destroy()
      skeleton.updateWeights(mbds.fold(rows))
    }
  }

  /** Release the cached index Dataset (benchmarks build many instances). */
  def close(): Unit = indexesDs.unpersist(blocking = true)
}

object SparkDtlp {
  private[dist] def kryo[T: scala.reflect.ClassTag]: Encoder[T] = Encoders.kryo[T]

  private val LbdRowEncoder =
    Encoders.tuple(Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaDouble)

  /** `(sgId, a, b, lbd)` for every pair of one subgraph index. */
  private def lbdRows(idx: SubgraphDtlp): Seq[(Int, Int, Int, Double)] =
    idx.lbds.map { case (a, b, d) => (idx.sg.id, a, b, d) }

  /** Algorithm 1 on the cluster: partition on the driver, build every
    * subgraph index in parallel over `numWorkers` partitions (default: the
    * cluster's parallelism), collect LBDs, assemble the skeleton.
    * `mode` has the single value [[LbdMode.Faithful]].
    */
  def build(
      spark: SparkSession,
      g: WeightedGraph,
      z: Int,
      xi: Int,
      mode: LbdMode = LbdMode.Faithful,
      numWorkers: Int = 0,
      levelSpread: Double = SubgraphDtlp.DefaultLevelSpread,
      exactRefreshEnabled: Boolean = true): SparkDtlp = {
    val workers = if (numWorkers > 0) numWorkers else spark.sparkContext.defaultParallelism
    val partitioning = Partitioner.partition(g, z)
    val ds = spark
      .createDataset(partitioning.subgraphs)(kryo[Subgraph])
      .repartition(workers)
      .map(sg => new SubgraphDtlp(sg, xi, levelSpread, exactRefreshEnabled))(kryo[SubgraphDtlp])
      .persist(StorageLevel.MEMORY_ONLY)
    val mbds = new MbdFold
    val skeleton = SkeletonGraph.build(mbds.fold(ds.flatMap(lbdRows)(LbdRowEncoder).collect()))
    new SparkDtlp(spark, partitioning, xi, workers, ds, skeleton, mbds)
  }
}
