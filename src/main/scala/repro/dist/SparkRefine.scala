package repro.dist

import org.apache.spark.sql.Encoders
import repro.core._

/** Refine-step executor running on the Spark cluster (Section 5.2 / Figure
  * 14, Step 2): the driver broadcasts the round's pair requests; every
  * partition (≙ SubgraphBolt) computes partial k-shortest paths for the
  * requests that target its subgraphs; partials flow back to the driver
  * (≙ QueryBolt), which merges them per pair with the same
  * [[RefineService]] merges as the local service.
  */
final class SparkRefineService(dtlp: SparkDtlp) extends RefineService {

  import SparkDtlp.kryo

  // Serializable row: ((a, b), path) computed in one subgraph.
  private type PartialRow = ((Int, Int), Path)

  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] = {
    if (requests.isEmpty) return Map.empty
    // sgId → (a, b, k) work items for that subgraph.
    val bySg: Map[Int, Seq[(Int, Int, Int)]] = requests
      .flatMap(r => r.sgIds.map(sg => sg -> ((r.a, r.b, r.k))))
      .groupBy(_._1).map { case (sg, xs) => sg -> xs.map(_._2) }
    val bc = dtlp.spark.sparkContext.broadcast(bySg)
    val rows = dtlp.indexes
      .flatMap { idx =>
        bc.value.getOrElse(idx.sg.id, Seq.empty).flatMap { case (a, b, k) =>
          idx.partialKsp(a, b, k).map(p => ((a, b), p): PartialRow)
        }
      }(kryo[PartialRow])
      .collect()
    bc.destroy()
    val byPair = rows.toSeq.groupMap(_._1)(_._2)
    requests.map { r =>
      (r.a, r.b) -> RefineService.mergePartials(byPair.getOrElse((r.a, r.b), Seq.empty), r.k)
    }.toMap
  }

  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)] =
    attachmentBoundsBatch(Seq((v, extraTargets)))((v, extraTargets))

  override def attachmentBoundsBatch(items: Seq[(Int, Set[Int])]): Map[(Int, Set[Int]), Seq[(Int, Double)]] = {
    if (items.isEmpty) return Map.empty
    // sgId → attachment items whose vertex lives in that subgraph.
    val bySg: Map[Int, Seq[(Int, Set[Int])]] = items.distinct
      .flatMap(it => dtlp.partitioning.subgraphsOfVertex(it._1).map(sg => sg -> it))
      .groupBy(_._1).map { case (sg, xs) => sg -> xs.map(_._2) }
    val bc = dtlp.spark.sparkContext.broadcast(bySg)
    type Row = ((Int, Set[Int]), Seq[(Int, Double)])
    val rows = dtlp.indexes
      .flatMap { idx =>
        bc.value.getOrElse(idx.sg.id, Seq.empty).map { case (v, extras) =>
          ((v, extras), idx.boundsFrom(v, extras)): Row
        }
      }(kryo[Row])
      .collect()
    bc.destroy()
    // A boundary-ish vertex can live in several subgraphs: merge with min.
    val byItem = rows.toSeq.groupMap(_._1)(_._2)
    items.distinct.map { it =>
      it -> RefineService.mergeAttachments(byItem.getOrElse(it, Seq.empty).flatten)
    }.toMap
  }
}

/** Batch KSP query engine on Spark: a [[KspDgEngine]] whose refine step fans
  * out to the cluster. One Spark job per filter-refine round serves every
  * active query in the batch.
  */
object SparkKspEngine {
  def apply(dtlp: SparkDtlp, maxIterations: Int = 5000,
            queryParallelism: Int = Runtime.getRuntime.availableProcessors): KspDgEngine =
    new KspDgEngine(dtlp.partitioning, dtlp.skeleton, new SparkRefineService(dtlp),
      maxIterations, queryParallelism)
}
