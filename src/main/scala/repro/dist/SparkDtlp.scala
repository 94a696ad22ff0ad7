package repro.dist

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._

/** DTLP deployed on Spark (substituting for the paper's Storm topology —
  * DESIGN.md §2):
  *
  *   - the driver plays the EntranceSpout: it owns the partitioning metadata
  *     and the skeleton graph, and runs the same update driver as the local
  *     [[Dtlp]] ([[Dtlp.runUpdate]]: routing, then the [[MbdFold]]);
  *   - the executors play SubgraphBolts: the per-subgraph level-1 indexes
  *     ([[SubgraphDtlp]]) live in a cached `Dataset`, spread over
  *     `numWorkers` partitions (one partition ≙ one server of the paper's
  *     cluster);
  *   - maintenance is a Spark job per batch: each partition updates its own
  *     subgraph indexes through their EP-Indexes and ships back one LBD
  *     array (with the work counts) per *touched* subgraph only.
  */
final class SparkDtlp private (
    val spark: SparkSession,
    val partitioning: Partitioning,
    val xi: Int,
    val numWorkers: Int,
    @transient private var indexesDs: Dataset[SubgraphDtlp],
    mbds: MbdFold) extends Serializable {

  import SparkDtlp._

  val skeleton: SkeletonGraph = mbds.skeleton

  def indexes: Dataset[SubgraphDtlp] = indexesDs

  /** Apply a weight-update batch cluster-wide; one Spark job. A batch naming
    * an unknown edge or a non-finite or non-positive weight is rejected
    * whole, before anything is written. The writes run inside
    * [[SkeletonGraph.writing]], so a query batch they overlap throws.
    */
  def update(batch: Seq[WeightUpdate]): UpdateReport =
    Dtlp.runUpdate(partitioning, mbds, batch) { bySg =>
      val bc = spark.sparkContext.broadcast(bySg)
      val updated = indexesDs
        .map { idx => bc.value.get(idx.sg.id).foreach(idx.write); idx }(kryo[SubgraphDtlp])
        .localCheckpoint(eager = false)
      // Materialize the new state; pull the results of the touched subgraphs.
      val results = updated
        .flatMap(idx => bc.value.get(idx.sg.id).map(us => (idx.sg.id, idx.updateResult(us))))(kryo[(Int, SubgraphUpdate)])
        .collect()
      indexesDs.unpersist(blocking = false)
      indexesDs = updated
      bc.destroy()
      results.toSeq
    }

  /** Release the cached index Dataset (benchmarks build many instances). */
  def close(): Unit = indexesDs.unpersist(blocking = true)
}

object SparkDtlp {
  private[dist] def kryo[T: scala.reflect.ClassTag]: Encoder[T] = Encoders.kryo[T]

  private val LbdRowEncoder =
    Encoders.tuple(Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaDouble)

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
    val mbds = MbdFold.build(partitioning.subgraphs.size, ds.flatMap(_.lbdRows)(LbdRowEncoder).collect().toSeq)
    new SparkDtlp(spark, partitioning, xi, workers, ds, mbds)
  }
}
