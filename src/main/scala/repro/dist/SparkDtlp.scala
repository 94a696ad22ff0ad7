package repro.dist

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.collection.mutable

/** DTLP deployed on Spark (substituting for the paper's Storm topology —
  * DESIGN.md §2):
  *
  *   - the driver plays the EntranceSpout: it owns the partitioning metadata
  *     and the skeleton graph, and routes weight updates;
  *   - the executors play SubgraphBolts: the per-subgraph level-1 indexes
  *     ([[SubgraphDtlp]]) live in a cached `Dataset`, repartitioned into
  *     `numWorkers` partitions (one partition ≙ one server of the paper's
  *     cluster);
  *   - maintenance is a Spark job per batch: each partition updates its own
  *     subgraph indexes through their EP-Indexes and ships back the
  *     refreshed LBDs of the *touched* subgraphs only; the driver folds
  *     them into its per-pair LBD table and refreshes the skeleton MBDs.
  */
final class SparkDtlp private (
    val spark: SparkSession,
    val partitioning: Partitioning,
    val xi: Int,
    val numWorkers: Int,
    @transient private var indexesDs: Dataset[SubgraphDtlp],
    val skeleton: SkeletonGraph,
    lbdBySg: mutable.HashMap[(Int, Int), mutable.HashMap[Int, Double]]) extends Serializable {

  import SparkDtlp._

  def indexes: Dataset[SubgraphDtlp] = indexesDs

  /** Apply a weight-update batch cluster-wide; one Spark job. A batch naming
    * an unknown edge or a non-finite or non-positive weight is rejected
    * whole, before anything is written.
    */
  def update(batch: Seq[WeightUpdate]): Unit = {
    partitioning.applyUpdates(batch) // driver copy (EntranceSpout's master graph)
    val bySg = batch.groupBy(u => partitioning.subgraphOfEdge(u.edgeId)).filter(_._1 >= 0)
    if (bySg.isEmpty) return
    val bc = spark.sparkContext.broadcast(bySg)
    val updated = indexesDs
      .map { idx => idx.update(bc.value.getOrElse(idx.sg.id, Seq.empty), LbdMode.Faithful); idx }(kryo[SubgraphDtlp])
      .localCheckpoint(eager = false)
    // Materialize the new state; pull refreshed LBDs of touched subgraphs.
    val touched = bySg.keySet
    val bcTouched = spark.sparkContext.broadcast(touched)
    val lbdRows = updated
      .flatMap { idx =>
        if (bcTouched.value.contains(idx.sg.id))
          idx.lbds.map { case (a, b, d) => (idx.sg.id, a, b, d) }
        else Seq.empty
      }(Encoders.tuple(Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaDouble))
      .collect()
    indexesDs.unpersist(blocking = false)
    indexesDs = updated
    bc.destroy(); bcTouched.destroy()
    // Fold into the driver-side LBD table, then refresh affected MBDs.
    lbdRows.foreach { case (sgId, a, b, d) => lbdBySg((a, b))(sgId) = d }
    val changed = lbdRows.iterator.map(r => (r._2, r._3)).toSet
    skeleton.updateWeights(changed.iterator.map { case (a, b) =>
      (a, b, lbdBySg((a, b)).valuesIterator.min)
    }.toSeq)
  }

  /** Release the cached index Dataset (benchmarks build many instances). */
  def close(): Unit = indexesDs.unpersist(blocking = true)

  /** Re-spread the subgraph indexes over a different emulated cluster size
    * (scale-out experiments); returns a new handle sharing driver state.
    */
  def withWorkers(n: Int): SparkDtlp = {
    val ds = indexesDs.repartition(n).persist(StorageLevel.MEMORY_ONLY)
    ds.count()
    new SparkDtlp(spark, partitioning, xi, n, ds, skeleton, lbdBySg)
  }
}

object SparkDtlp {
  private[dist] def kryo[T: scala.reflect.ClassTag]: Encoder[T] = Encoders.kryo[T]

  /** Algorithm 1 on the cluster: partition on the driver, build every
    * subgraph index in parallel, collect LBDs, assemble the skeleton.
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
    val lbdRows = ds
      .flatMap(idx => idx.lbds.map { case (a, b, d) => (idx.sg.id, a, b, d) })(
        Encoders.tuple(Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaDouble))
      .collect()
    val lbdBySg = mutable.HashMap.empty[(Int, Int), mutable.HashMap[Int, Double]]
    lbdRows.foreach { case (sgId, a, b, d) =>
      lbdBySg.getOrElseUpdate((a, b), mutable.HashMap.empty)(sgId) = d
    }
    val skeleton = SkeletonGraph.build(
      lbdBySg.iterator.map { case ((a, b), m) => (a, b, m.valuesIterator.min) }.toSeq)
    new SparkDtlp(spark, partitioning, xi, workers, ds, skeleton, lbdBySg)
  }
}
